// Experiment runners shared by the bench binaries and the fleet executor.
// Each builds its path (a single-path Testbed, or a src/topo Network with
// cross traffic), runs its flows through the one FlowSet core
// (src/apps/measured_flow.h) to completion on the calling thread, and returns
// plain-value results. Runs are deterministic in the seed and fully isolated
// (each owns its EventLoop and Rng), which is what makes them safe to fan out
// across fleet worker threads.

#ifndef ELEMENT_SRC_RUNNER_EXPERIMENT_H_
#define ELEMENT_SRC_RUNNER_EXPERIMENT_H_

#include <string>
#include <vector>

#include "src/apps/measured_flow.h"
#include "src/common/stats.h"
#include "src/element/estimation_error.h"
#include "src/runner/scenario.h"
#include "src/tcpsim/testbed.h"
#include "src/telemetry/metric_registry.h"
#include "src/trace/ground_truth.h"

namespace element {

// One measured (minimization off) Cubic flow: ELEMENT estimates vs ground
// truth, with `background_flows` unmeasured flows joining every 20 s.
AccuracyRun RunAccuracyExperiment(uint64_t seed, const PathConfig& path, double duration_s,
                                  TimeDelta tracker_period = TimeDelta::FromMillis(10),
                                  int background_flows = 0);

// The fleet's unit of work: everything one scenario produced. Raw per-flow
// rows and accuracy sample sets are kept for figure printing; the metric
// registry holds the mergeable summaries the aggregate layer folds together.
struct ScenarioResult {
  ScenarioSpec spec;
  bool ok = false;
  bool cancelled = false;
  std::string error;

  std::vector<FlowResult> flows;  // legacy app and topology runs
  bool has_accuracy = false;
  AccuracyRun accuracy;  // accuracy app, or a topology run's scored flow 0

  // Mergeable summaries under canonical names (the aggregate's pinned JSON
  // keys): hists "sender_delay_s", "network_delay_s", "receiver_delay_s",
  // "e2e_delay_s" (one sample per flow, mean delays, in seconds) and
  // "sender_err_s"/"receiver_err_s" (one sample per estimate, absolute
  // error), stats "goodput_mbps", counter "retransmits".
  telemetry::MetricRegistry metrics;

  // Topology runs only (spec.topology != "none"); surfaced in per-scenario
  // result rows, never folded into the aggregate.
  bool has_topology = false;
  double jain_fairness = 1.0;        // over foreground goodputs
  uint64_t forwarded_packets = 0;    // summed over every router
  uint64_t unroutable_packets = 0;   // 0 in a well-routed run
  uint64_t cross_flows = 0;
  uint64_t cross_bytes = 0;

  // Wall-clock cost of the run (harness metric; never part of deterministic
  // output).
  double wall_seconds = 0.0;
};

// Runs one scenario on the calling thread. Validation problems and workload
// exceptions are reported via ok/error rather than thrown.
ScenarioResult ExecuteScenario(const ScenarioSpec& spec);

}  // namespace element

#endif  // ELEMENT_SRC_RUNNER_EXPERIMENT_H_
