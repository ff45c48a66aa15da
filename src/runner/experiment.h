// Experiment runners shared by the bench binaries and the fleet executor.
// Each runner builds a Testbed for one scenario, drives it to completion on
// the calling thread, and returns plain-value results. Runs are deterministic
// in the seed and fully isolated (each owns its EventLoop and Rng), which is
// what makes them safe to fan out across fleet worker threads.

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

struct LegacyExperiment {
  PathConfig path;
  std::string congestion_control = "cubic";
  int num_flows = 3;
  // Flow 0 runs through the ELEMENT interposer (LD_PRELOAD analogue).
  bool element_on_first = false;
  bool element_wireless = false;  // LTE/WiFi mode of Algorithm 3
  bool sender_at_client = true;   // false = "download" over the reverse pipe
  double duration_s = 30.0;
  double warmup_s = 3.0;  // excluded from delay statistics
  uint64_t seed = 1;
};

// Runs N iperf-style flows over one path; returns per-flow results.
std::vector<FlowResult> RunLegacyExperiment(const LegacyExperiment& cfg);

struct AccuracyRun {
  AccuracyResult sender;
  AccuracyResult receiver;
  GroundTruthTracer::Composition composition;
  double goodput_mbps = 0.0;
};

// One measured (minimization off) flow: ELEMENT estimates vs ground truth.
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

  std::vector<FlowResult> flows;  // legacy app
  bool has_accuracy = false;
  AccuracyRun accuracy;  // accuracy app

  // Mergeable summaries under canonical names (the aggregate's pinned JSON
  // keys): hists "sender_delay_s", "network_delay_s", "receiver_delay_s",
  // "e2e_delay_s" (one sample per flow, mean delays, in seconds) and
  // "sender_err_s"/"receiver_err_s" (one sample per estimate, absolute
  // error), stats "goodput_mbps", counter "retransmits". Topology runs also
  // fold in the contention run's "topo.*" counters.
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
