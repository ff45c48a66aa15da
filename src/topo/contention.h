// Contention experiment: N foreground flows and configurable cross traffic
// through a shared-bottleneck topology, with ground-truth delay decomposition
// per foreground flow and (optionally) ELEMENT's estimator accuracy for flow
// 0 — the production-network analogue of the paper's single-path accuracy
// experiments, and the engine behind bench/fig_contention and the
// `topology` axis of the fleet runner.

#ifndef ELEMENT_SRC_TOPO_CONTENTION_H_
#define ELEMENT_SRC_TOPO_CONTENTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/apps/measured_flow.h"
#include "src/common/time.h"
#include "src/element/estimation_error.h"
#include "src/netsim/qdisc.h"
#include "src/topo/cross_traffic.h"
#include "src/topo/topology.h"
#include "src/trace/ground_truth.h"

namespace element {

struct ContentionConfig {
  TopologySpec topo;

  // Foreground long-lived flows, round-robined over the spec's end-to-end
  // host pairs.
  int flows = 2;
  std::string congestion_control = "cubic";
  bool ecn = false;  // foreground sockets negotiate ECN (pair with topo.ecn)

  // Per-hop background load (see cross_traffic.h).
  CrossTrafficConfig cross;

  // Score flow 0's ELEMENT sender/receiver estimates against ground truth.
  bool element_on_first = false;
  // No run sets it; perfbench/workloads.cc reads it for its ELEMENT sockets.
  // It goes with the benchmark change that ROADMAP items 5, 9 and 10 wait for.
  TimeDelta tracker_period = TimeDelta::FromMillis(10);  // lint_sim: allow(unset-knob)

  double duration_s = 30.0;
  double warmup_s = 3.0;  // excluded from the delay decomposition
  uint64_t seed = 1;
};

// Foreground rows carry the same fields as every other driver's; the
// relative delay is measured above the access + bottleneck propagation floor.
using ContentionFlowResult = FlowResult;

struct ContentionResult {
  std::vector<ContentionFlowResult> flows;  // foreground, in creation order

  // Jain's fairness index over foreground goodputs: 1.0 = perfectly fair,
  // 1/n = one flow starves all others.
  double jain_fairness = 1.0;

  bool has_accuracy = false;
  AccuracyResult sender_accuracy;    // flow 0 estimates vs ground truth
  AccuracyResult receiver_accuracy;
  GroundTruthTracer::Composition flow0_composition;

  // Topology-level accounting.
  uint64_t forwarded_packets = 0;    // summed over every router
  uint64_t unroutable_packets = 0;   // must stay 0 in a well-routed run
  size_t cross_flows = 0;
  uint64_t cross_bytes_delivered = 0;
  QdiscStats bottleneck;             // hop 0, forward direction
  uint64_t processed_events = 0;     // EventLoop total (perf accounting)
};

// Runs one seeded contention scenario to completion on the calling thread.
// Deterministic in the config: identical configs produce identical results.
ContentionResult RunContentionExperiment(const ContentionConfig& config);

// Jain's fairness index (Σx)² / (n·Σx²); 1.0 for n <= 1 or all-zero inputs.
double JainFairnessIndex(const std::vector<double>& values);

}  // namespace element

#endif  // ELEMENT_SRC_TOPO_CONTENTION_H_
