// Shared printing helpers for the per-figure benchmark binaries. The
// experiment runners themselves live in src/runner/experiment.h (so the fleet
// executor can drive them too); this layer owns the figure-facing formatting
// that used to be copy-pasted across bench/fig*.cc.

#ifndef ELEMENT_BENCH_HARNESS_H_
#define ELEMENT_BENCH_HARNESS_H_

#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/runner/experiment.h"

namespace element {

// Runs a legacy-app spec through ExecuteScenario and returns its per-flow rows;
// a failed run aborts the bench.
std::vector<FlowResult> LegacyFlows(const ScenarioSpec& spec);

// CDF quantiles used when reproducing the paper's CDF figures as rows.
extern const std::vector<double> kCdfQuantiles;

// Mean delay decomposition across a scenario's flows, in seconds.
struct MeanDelays {
  double sender_s = 0.0;
  double network_s = 0.0;
  double receiver_s = 0.0;
  double total_s() const { return sender_s + network_s + receiver_s; }
};
MeanDelays AverageDelays(const std::vector<FlowResult>& flows);

// The Fig. 3-style table row: per-component mean delays in milliseconds.
void AddDelayCompositionRow(TablePrinter* table, const std::string& network,
                            const std::string& qdisc, const MeanDelays& delays);

// The Fig. 7/8-style pair of rows: sender then receiver error quantiles plus
// the scalar accuracy summary.
void AddAccuracyRows(TablePrinter* table, const std::string& name, const AccuracyRun& run);

// The Fig. 6c/8-style full error CDF rows for both sides.
void PrintErrorCdfRows(const AccuracyRun& run, const std::string& sender_label,
                       const std::string& receiver_label);

}  // namespace element

#endif  // ELEMENT_BENCH_HARNESS_H_
