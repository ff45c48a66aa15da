// The three benchmark workloads. Each runs through the public driver users
// already call (RunAccuracyExperiment, RunContentionExperiment, RunFleet);
// single_path and dumbbell_128 also have a replica built from the same public
// pieces, which the traced run decorates with probes.h.

#ifndef ELEMENT_PERFBENCH_WORKLOADS_H_
#define ELEMENT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/bench_math.h"
#include "src/runner/experiment.h"
#include "src/runner/scenario.h"
#include "src/topo/contention.h"

namespace perfbench {

// single_path: one Cubic flow, 10 Mbps, 50 ms RTT, CoDel, ELEMENT at both
// ends (minimization off, 10 ms tracker), ground truth attached.
element::PathConfig SinglePathConfig();
inline constexpr double kSinglePathSimS = 30.0;

// dumbbell_128: 128 Cubic flows over 32 host pairs, FQ-CoDel with a
// 500-packet limit, 200 Mbps; ELEMENT scored on flow 0. micro_topo's
// 1024-flow dumbbell swings with the host's cache contention far more than
// the other workloads do; 128 flows keep the router, the drops and the heap
// at about the same events per simulated second.
element::ContentionConfig DumbbellConfig(uint64_t seed, double duration_s);
inline constexpr double kDumbbellSimS = 2.0;

// What one simulation produced, in a form shared by the drivers' results and
// the replicas, so the two can be compared field by field.
struct SimOutcome {
  uint64_t processed_events = 0;  // 0 when the driver does not report it
  std::vector<double> goodput_mbps;  // per flow, from bytes read
  std::vector<double> sender_err_s;  // ELEMENT estimate errors, flow 0
  std::vector<double> receiver_err_s;
  uint64_t flows = 0;
  uint64_t failed_flows = 0;
  bool run_failed = false;  // unroutable packets or unconserved qdisc stats
  std::string problem;      // first failure found, for the log
};

// Same simulation, same results: every compared field equal. Fields a side
// did not report (processed_events == 0) are skipped. Returns "" or the
// first difference.
std::string CompareOutcomes(const SimOutcome& a, const SimOutcome& b);

SimOutcome RunSinglePathDriver(uint64_t seed, double duration_s);
SimOutcome RunDumbbellDriver(uint64_t seed, double duration_s);

// Counters of one replica run, summed when a run makes several.
struct LayerReport {
  double sim_s = 0.0;
  int64_t run_ns = 0;  // wall time inside EventLoop::RunUntil
  uint64_t events = 0;
  uint64_t heap_capacity = 0;  // largest over the runs
  uint64_t slab_slots = 0;     // largest over the runs
  uint64_t segs_out = 0;       // sender sockets, from GetTcpInfo
  uint64_t retransmits = 0;
  uint64_t qdisc_offered = 0;  // forward bottleneck qdiscs: enqueued + pre-queue drops
  uint64_t qdisc_enqueued = 0;
  uint64_t qdisc_dropped = 0;
  uint64_t qdisc_marked = 0;
  uint64_t forwarded = 0;  // every router
  uint64_t unroutable = 0;
  uint64_t routes = 0;      // flows with installed routes (router table size)
  uint64_t host_pairs = 0;  // egress fan-out of the end routers
  uint64_t trace_records = 0;
  uint64_t dispatched = 0;  // TelemetrySpine::dispatched()
  uint64_t estimates = 0;   // ELEMENT sender + receiver delay estimates
  uint64_t pending_records_end = 0;

  void Add(const LayerReport& other);
};

// Replicas of the two drivers' wiring. With a null recorder they insert no
// decorator; with one, every seam in probes.h is timed.
SimOutcome RunSinglePathReplica(uint64_t seed, double duration_s, SpanRecorder* rec,
                                LayerReport* report);
SimOutcome RunDumbbellReplica(uint64_t seed, double duration_s, SpanRecorder* rec,
                              LayerReport* report);

// Mean wall nanoseconds of one Router::Deliver on a standalone router with
// `routes` exact routes spread over `ports` null egress ports.
double RouteNanos(uint64_t routes, uint64_t ports, int packets);

// fleet_grid: one pass of RunFleet over `specs`.
struct FleetPass {
  double wall_s = 0.0;       // RunFleet
  double aggregate_s = 0.0;  // AggregateResults + FleetReportJson
  size_t failed = 0;
  size_t cancelled = 0;
  int jobs = 1;        // workers RunFleet used
  double sim_s = 0.0;  // simulated seconds over completed scenarios
  std::string report;  // deterministic FleetReportJson, for comparisons
  std::vector<double> scenario_s;  // traced passes: each ExecuteScenario
  std::vector<double> result_s;    // ScenarioResult::wall_seconds, in spec order
};

FleetPass RunFleetPass(const std::vector<element::ScenarioSpec>& specs, int jobs, bool traced);

// Loads and expands a suite file; grid seeds are shifted by `seed`.
bool LoadGrid(const std::string& path, uint64_t seed, std::vector<element::ScenarioSpec>* specs,
              std::string* error);

}  // namespace perfbench

#endif  // ELEMENT_PERFBENCH_WORKLOADS_H_
