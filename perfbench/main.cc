// perfbench_sim: runs one benchmark workload and prints one JSON object with
// its metrics, output checks and build description. perfbench/run.py builds
// this binary, runs it, and prints the contract's result line.
//
//   perfbench_sim --workload single_path|dumbbell_128|fleet_grid --seed N
//                 --seconds S --trace 0|1 --suite perfbench/fleet_grid.json
//                 [--trace-out FILE]
//
// --trace 0 measures the end-to-end metrics through the public drivers for S
// seconds. --trace 1 makes a fixed number of twin runs, untraced through the
// driver and traced through a decorated replica, checks that each pair
// produced the same simulation, and reports the per-layer metrics.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "perfbench/bench_math.h"
#include "perfbench/probes.h"
#include "perfbench/workloads.h"
#include "src/common/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using element::json::Value;

// Distinct simulation seeds a run cycles through, per workload.
constexpr int kSinglePathSeeds = 4;
constexpr int kDumbbellSeeds = 1;
// Suite loads timed per traced fleet run (the median is reported).
constexpr int kSuiteLoadReps = 60;
// The shortest simulated duration the drivers accept: one nanosecond.
constexpr double kShortestSimS = 1e-9;
// Twin pairs per traced run: fixed, so per-layer counts repeat exactly.
constexpr int kTracedPairs = 4;
constexpr int kTracedFleetPasses = 3;  // 3 x 400 scenarios: enough for a p99
constexpr int kRoutePackets = 2'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string suite = "perfbench/fleet_grid.json";
  std::string trace_out;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& better) {
    Value m = Value::Object();
    m.Set("value", Value::Number(value));
    m.Set("unit", Value::Str(unit));
    m.Set("better", Value::Str(better));
    metrics_.Set(name, std::move(m));
  }
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Problem(const std::string& problem) {
    if (problem_count_++ < 20) {
      problems_.Append(Value::Str(problem));
    }
    correct_ = false;
  }
  void Info(const std::string& key, Value v) { info_.Set(key, std::move(v)); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  Value ToJson() const {
    Value doc = Value::Object();
    doc.Set("correct", Value::Bool(correct_ && failed_ == 0 && attempted_ > 0));
    doc.Set("attempted", Value::Int(static_cast<int64_t>(attempted_)));
    doc.Set("failed", Value::Int(static_cast<int64_t>(failed_)));
    doc.Set("metrics", metrics_);
    doc.Set("problems", problems_);
    doc.Set("info", info_);
    return doc;
  }

 private:
  Value metrics_ = Value::Object();
  Value problems_ = Value::Array();
  Value info_ = Value::Object();
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int problem_count_ = 0;
  bool correct_ = true;
};

int Jobs() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Operations of one simulation: its flows; a failed run fails all of them.
void CountOutcome(const SimOutcome& o, Report* rep) {
  uint64_t failed = o.run_failed ? o.flows : o.failed_flows;
  rep->Count(o.flows, failed);
  if (!o.problem.empty()) {
    rep->Problem(o.problem);
  }
}

void AddErrorMetrics(const std::vector<double>& sender_s, const std::vector<double>& receiver_s,
                     Report* rep) {
  auto ms = [](std::vector<double> v) {
    for (double& x : v) {
      x *= 1e3;
    }
    return v;
  };
  std::vector<double> snd = ms(sender_s);
  std::vector<double> rcv = ms(receiver_s);
  Tail snd99 = TailQuantile(snd, 0.99);
  Tail rcv99 = TailQuantile(rcv, 0.99);
  rep->Add("sender_err_ms_p50", Median(snd), "ms", "lower");
  rep->Add("sender_err_ms_p99", snd99.value, "ms", "lower");
  rep->Add("receiver_err_ms_p50", Median(rcv), "ms", "lower");
  rep->Add("receiver_err_ms_p99", rcv99.value, "ms", "lower");
  Value q = Value::Object();
  q.Set("sender_samples", Value::Int(static_cast<int64_t>(snd99.samples)));
  q.Set("sender_tail_quantile", Value::Number(snd99.quantile));
  q.Set("receiver_samples", Value::Int(static_cast<int64_t>(rcv99.samples)));
  q.Set("receiver_tail_quantile", Value::Number(rcv99.quantile));
  rep->Info("error_percentiles", std::move(q));
}

// ---- Untraced: single_path and dumbbell_128 --------------------------------

// Every timed unit below (a seed's simulation, a fleet scenario, a set-up) is
// deterministic work repeated throughout the run, so its repeats differ only
// by interference from the host, and the figure uses its fastest repeat. On
// shared hosts the same call runs 25-60% slower for seconds at a time, which
// moves medians between runs far more than minima; the median-based figures
// are kept in the result's info for comparison.
double Fastest(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

using DriverCall = std::function<SimOutcome(uint64_t seed, double duration_s)>;

void MeasureSimulation(const Args& a, const DriverCall& call, int seeds, double sim_s,
                       Report* rep) {
  // One set-up sample per cycle, so set-up is measured under the same host
  // conditions as the run.
  std::vector<double> setup;
  auto setup_once = [&] {
    double t0 = NowSeconds();
    call(SeedFor(a.seed, 0), kShortestSimS);
    setup.push_back(NowSeconds() - t0);
  };

  // Cycle through the seeds until the time is up; every repeat of a seed
  // must reproduce its first run.
  std::vector<std::vector<double>> walls(static_cast<size_t>(seeds));
  std::vector<SimOutcome> first(static_cast<size_t>(seeds));
  double start = NowSeconds();
  int cycles = 0;
  do {
    setup_once();
    for (int k = 0; k < seeds; ++k) {
      uint64_t seed = SeedFor(a.seed, static_cast<uint64_t>(k));
      double t0 = NowSeconds();
      SimOutcome o = call(seed, sim_s);
      walls[static_cast<size_t>(k)].push_back(NowSeconds() - t0);
      CountOutcome(o, rep);
      if (cycles == 0) {
        first[static_cast<size_t>(k)] = std::move(o);
      } else {
        std::string diff = CompareOutcomes(first[static_cast<size_t>(k)], o);
        if (!diff.empty()) {
          rep->Problem("seed " + std::to_string(seed) + " did not repeat: " + diff);
        }
      }
    }
    ++cycles;
  } while (NowSeconds() - start < a.seconds);

  double cycle_s = 0.0;
  double cycle_median_s = 0.0;
  std::vector<double> snd;
  std::vector<double> rcv;
  for (int k = 0; k < seeds; ++k) {
    cycle_s += Fastest(walls[static_cast<size_t>(k)]);
    cycle_median_s += Median(walls[static_cast<size_t>(k)]);
    const SimOutcome& o = first[static_cast<size_t>(k)];
    snd.insert(snd.end(), o.sender_err_s.begin(), o.sender_err_s.end());
    rcv.insert(rcv.end(), o.receiver_err_s.begin(), o.receiver_err_s.end());
  }
  rep->Add("sim_s_per_wall_s", seeds * sim_s / cycle_s, "sim_s/s", "higher");
  rep->Add("scenarios_per_s", seeds / cycle_s, "1/s", "higher");
  rep->Add("setup_s", Fastest(setup), "s", "lower");
  AddErrorMetrics(snd, rcv, rep);
  rep->Info("sim_s_per_wall_s_from_medians", Value::Number(seeds * sim_s / cycle_median_s));
  rep->Info("setup_s_median", Value::Number(Median(setup)));
  rep->Info("cycles", Value::Int(cycles));
  rep->Info("seeds", Value::Int(seeds));
  rep->Info("setup_reps", Value::Int(static_cast<int64_t>(setup.size())));
}

// ---- Untraced: fleet_grid ----------------------------------------------------

// Suite load plus expansion, timed; false (with a problem reported) if the
// grid cannot be loaded.
bool TimedLoad(const Args& a, std::vector<element::ScenarioSpec>* specs,
               std::vector<double>* times, Report* rep) {
  std::string error;
  double t0 = NowSeconds();
  bool ok = LoadGrid(a.suite, a.seed, specs, &error);
  times->push_back(NowSeconds() - t0);
  if (!ok) {
    rep->Problem(error);
  }
  return ok;
}

void MeasureFleet(const Args& a, Report* rep) {
  std::vector<element::ScenarioSpec> specs;
  std::vector<double> setup;
  if (!TimedLoad(a, &specs, &setup, rep)) {
    return;
  }
  // A pass is one RunFleet over the grid. Its wall time splits into how long
  // the scenarios took (RunFleet times each) and how well the pool packed
  // them onto the workers (the busy share). With every worker on the host's
  // shared cores, a whole pass rarely runs undisturbed, but each scenario
  // does at some point: so the figure is each scenario's fastest repeat,
  // packed at the pool's median busy share.
  int jobs = Jobs();
  std::vector<double> fastest;
  std::vector<double> busy;
  std::vector<double> walls;
  std::string first_report;
  double sim_s = 0.0;
  double start = NowSeconds();
  do {
    if (!TimedLoad(a, &specs, &setup, rep)) {
      return;
    }
    FleetPass pass = RunFleetPass(specs, jobs, /*traced=*/false);
    walls.push_back(pass.wall_s);
    rep->Count(specs.size(), pass.failed + pass.cancelled);
    double scenarios_s = 0.0;
    for (double s : pass.result_s) {
      scenarios_s += s;
    }
    busy.push_back(WorkerBusyShare(scenarios_s, pass.jobs, pass.wall_s));
    if (first_report.empty()) {
      first_report = pass.report;
      sim_s = pass.sim_s;
      fastest = pass.result_s;
    } else if (pass.report != first_report) {
      rep->Problem("fleet report differs between passes of the same grid");
    }
    for (size_t i = 0; i < fastest.size(); ++i) {
      fastest[i] = std::min(fastest[i], pass.result_s[i]);
    }
  } while (NowSeconds() - start < a.seconds);

  double fastest_s = 0.0;
  for (double s : fastest) {
    fastest_s += s;
  }
  double n = static_cast<double>(specs.size());
  double grid_s = fastest_s / (jobs * Median(busy));
  rep->Add("sim_s_per_wall_s", sim_s / grid_s, "sim_s/s", "higher");
  rep->Add("scenarios_per_s", n / grid_s, "1/s", "higher");
  rep->Add("setup_s", Fastest(setup), "s", "lower");
  rep->Info("scenarios_per_s_from_median_pass", Value::Number(n / Median(walls)));
  rep->Info("worker_busy_share_median", Value::Number(Median(busy)));
  rep->Info("setup_s_median", Value::Number(Median(setup)));
  rep->Info("passes", Value::Int(static_cast<int64_t>(walls.size())));
  rep->Info("scenarios", Value::Int(static_cast<int64_t>(specs.size())));
  rep->Info("jobs", Value::Int(jobs));
}

// ---- Traced ------------------------------------------------------------------

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void AddSpanMetrics(const SpanRecorder& rec, int64_t run_ns, Report* rep) {
  auto calls = [&](Layer l) { return static_cast<double>(rec.Total(l).calls); };
  auto self = [&](Layer l) { return static_cast<double>(rec.Total(l).self_ns); };
  double run = static_cast<double>(run_ns);
  rep->Add("tcpsim.rx.calls", calls(Layer::kTcpRx), "count", "lower");
  rep->Add("tcpsim.rx.self_ns", self(Layer::kTcpRx), "ns", "lower");
  rep->Add("tcpsim.write.calls", calls(Layer::kTcpWrite), "count", "lower");
  rep->Add("tcpsim.write.self_ns", self(Layer::kTcpWrite), "ns", "lower");
  rep->Add("tcpsim.read.calls", calls(Layer::kTcpRead), "count", "lower");
  rep->Add("tcpsim.read.self_ns", self(Layer::kTcpRead), "ns", "lower");
  rep->Add("tcpsim.share",
           Ratio(self(Layer::kTcpRx) + self(Layer::kTcpWrite) + self(Layer::kTcpRead), run),
           "share", "lower");
  rep->Add("netsim.tx.calls", calls(Layer::kNetTx), "count", "lower");
  rep->Add("netsim.tx.self_ns", self(Layer::kNetTx), "ns", "lower");
  rep->Add("netsim.share", Ratio(self(Layer::kNetTx), run), "share", "lower");
  rep->Add("trace.self_ns", self(Layer::kTrace), "ns", "lower");
  rep->Add("trace.share", Ratio(self(Layer::kTrace), run), "share", "lower");
  rep->Add("element.send.calls", calls(Layer::kElemSend), "count", "lower");
  rep->Add("element.send.self_ns", self(Layer::kElemSend), "ns", "lower");
  rep->Add("element.recv.calls", calls(Layer::kElemRecv), "count", "lower");
  rep->Add("element.recv.self_ns", self(Layer::kElemRecv), "ns", "lower");
  rep->Add("element.share", Ratio(self(Layer::kElemSend) + self(Layer::kElemRecv), run), "share",
           "lower");
  rep->Add("evloop.unattributed_share", UnattributedShare(run_ns, rec.root_ns()), "share",
           "lower");
}

void AddLayerCounts(const LayerReport& r, double untraced_wall_s, Report* rep) {
  double events = static_cast<double>(r.events);
  rep->Add("evloop.events", events, "count", "lower");
  rep->Add("evloop.events_per_sim_s", Ratio(events, r.sim_s), "1/sim_s", "lower");
  rep->Add("evloop.events_per_wall_s", Ratio(events, untraced_wall_s), "1/s", "higher");
  rep->Add("evloop.heap_capacity", static_cast<double>(r.heap_capacity), "count", "lower");
  rep->Add("evloop.slab_slots", static_cast<double>(r.slab_slots), "count", "lower");
  rep->Add("tcpsim.segs_out", static_cast<double>(r.segs_out), "count", "lower");
  rep->Add("tcpsim.retransmits", static_cast<double>(r.retransmits), "count", "lower");
  rep->Add("tcpsim.retransmit_ratio",
           Ratio(static_cast<double>(r.retransmits), static_cast<double>(r.segs_out)), "ratio",
           "lower");
  rep->Add("netsim.qdisc.enqueued", static_cast<double>(r.qdisc_enqueued), "count", "higher");
  rep->Add("netsim.qdisc.dropped", static_cast<double>(r.qdisc_dropped), "count", "lower");
  rep->Add("netsim.qdisc.drop_ratio",
           Ratio(static_cast<double>(r.qdisc_dropped), static_cast<double>(r.qdisc_offered)),
           "ratio", "lower");
  rep->Add("netsim.qdisc.marked", static_cast<double>(r.qdisc_marked), "count", "lower");
  rep->Add("topo.forwarded", static_cast<double>(r.forwarded), "count", "higher");
  rep->Add("topo.unroutable", static_cast<double>(r.unroutable), "count", "lower");
  rep->Add("topo.forwarded_per_event", Ratio(static_cast<double>(r.forwarded), events), "ratio",
           "higher");
  rep->Add("topo.route_ns", RouteNanos(r.routes, r.host_pairs, r.routes > 0 ? kRoutePackets : 0),
           "ns", "lower");
  rep->Add("trace.records", static_cast<double>(r.trace_records), "count", "lower");
  rep->Add("element.estimates", static_cast<double>(r.estimates), "count", "higher");
  rep->Add("element.pending_records_end", static_cast<double>(r.pending_records_end), "count",
           "lower");
  rep->Add("telemetry.dispatched", static_cast<double>(r.dispatched), "count", "lower");
  rep->Add("telemetry.dispatched_per_event", Ratio(static_cast<double>(r.dispatched), events),
           "ratio", "lower");
}

struct RunnerStats {
  double scenario_ms_p50 = 0.0;
  double scenario_ms_p99 = 0.0;
  double worker_busy_share = 0.0;
  double suite_load_ms = 0.0;
  double aggregate_ms = 0.0;
  double failed = 0.0;
  double cancelled = 0.0;
};

void AddRunnerMetrics(const RunnerStats& s, Report* rep) {
  rep->Add("runner.scenario_ms_p50", s.scenario_ms_p50, "ms", "lower");
  rep->Add("runner.scenario_ms_p99", s.scenario_ms_p99, "ms", "lower");
  rep->Add("runner.worker_busy_share", s.worker_busy_share, "share", "higher");
  rep->Add("runner.suite_load_ms", s.suite_load_ms, "ms", "lower");
  rep->Add("runner.aggregate_ms", s.aggregate_ms, "ms", "lower");
  rep->Add("runner.failed", s.failed, "count", "lower");
  rep->Add("runner.cancelled", s.cancelled, "count", "lower");
}

void WriteTraceFile(const Args& a, const SpanRecorder& rec, Report* rep) {
  if (a.trace_out.empty()) {
    return;
  }
  Value doc = Value::Object();
  doc.Set("workload", Value::Str(a.workload));
  doc.Set("seed", Value::Int(static_cast<int64_t>(a.seed)));
  Value aggregates = Value::Array();
  for (int l = 0; l < kLayerCount; ++l) {
    for (int p = 0; p <= SpanRecorder::kRoot; ++p) {
      const SpanRecorder::Aggregate& agg = rec.aggregate(static_cast<Layer>(l), p);
      if (agg.calls == 0) {
        continue;
      }
      Value row = Value::Object();
      row.Set("layer", Value::Str(LayerName(static_cast<Layer>(l))));
      row.Set("parent", Value::Str(p == SpanRecorder::kRoot ? "(root)"
                                                            : LayerName(static_cast<Layer>(p))));
      row.Set("calls", Value::Int(static_cast<int64_t>(agg.calls)));
      row.Set("total_ns", Value::Int(agg.total_ns));
      row.Set("self_ns", Value::Int(agg.self_ns));
      aggregates.Append(std::move(row));
    }
  }
  doc.Set("aggregates", std::move(aggregates));
  Value spans = Value::Array();
  for (const SpanRecorder::RawSpan& s : rec.raw_spans()) {
    Value row = Value::Array();
    row.Append(Value::Str(LayerName(static_cast<Layer>(s.layer))));
    row.Append(Value::Str(s.parent == SpanRecorder::kRoot ? "(root)"
                                                          : LayerName(static_cast<Layer>(s.parent))));
    row.Append(Value::Int(s.start_ns));
    row.Append(Value::Int(s.duration_ns));
    row.Append(Value::Int(s.self_ns));
    spans.Append(std::move(row));
  }
  doc.Set("raw_span_columns", Value::Str("layer, parent, start_ns, duration_ns, self_ns"));
  doc.Set("raw_spans", std::move(spans));
  std::ofstream out(a.trace_out);
  out << doc.Dump(1) << "\n";
  if (!out) {
    rep->Problem("cannot write trace file " + a.trace_out);
    return;
  }
  rep->Info("trace_file", Value::Str(a.trace_out));
}

// Twin pairs for single_path / dumbbell_128: the driver untraced, then the
// replica traced; both must describe the same simulation.
void TraceSimulation(const Args& a, const DriverCall& driver,
                     const std::function<SimOutcome(uint64_t, double, SpanRecorder*,
                                                    LayerReport*)>& replica,
                     double sim_s, Report* rep) {
  SpanRecorder rec;
  LayerReport layers;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::vector<double> snd;
  std::vector<double> rcv;
  for (int i = 0; i < kTracedPairs; ++i) {
    uint64_t seed = SeedFor(a.seed, static_cast<uint64_t>(i));
    double t0 = NowSeconds();
    SimOutcome untraced = driver(seed, sim_s);
    untraced_s += NowSeconds() - t0;
    if (untraced.processed_events == 0) {
      // The driver does not report its event count; its wiring, rebuilt
      // without probes, does.
      SimOutcome plain = replica(seed, sim_s, nullptr, nullptr);
      std::string diff = CompareOutcomes(untraced, plain);
      if (!diff.empty()) {
        rep->Problem("replica drifted from the driver (seed " + std::to_string(seed) +
                     "): " + diff);
      }
      untraced.processed_events = plain.processed_events;
    }
    double t1 = NowSeconds();
    SimOutcome traced = replica(seed, sim_s, &rec, &layers);
    traced_s += NowSeconds() - t1;
    std::string diff = CompareOutcomes(untraced, traced);
    if (!diff.empty()) {
      rep->Problem("traced run differs from its untraced twin (seed " + std::to_string(seed) +
                   "): " + diff);
    }
    CountOutcome(traced, rep);
    snd.insert(snd.end(), traced.sender_err_s.begin(), traced.sender_err_s.end());
    rcv.insert(rcv.end(), traced.receiver_err_s.begin(), traced.receiver_err_s.end());
  }
  if (!rec.idle()) {
    rep->Problem("span stack not empty at the end of the run");
  }
  AddSpanMetrics(rec, layers.run_ns, rep);
  AddLayerCounts(layers, untraced_s, rep);
  AddErrorMetrics(snd, rcv, rep);
  AddRunnerMetrics(RunnerStats{}, rep);  // no fleet in this workload
  rep->Add("tracing_overhead", Ratio(traced_s, untraced_s), "x", "lower");
  rep->Info("traced_pairs", Value::Int(kTracedPairs));
  WriteTraceFile(a, rec, rep);
}

void TraceFleet(const Args& a, Report* rep) {
  std::vector<element::ScenarioSpec> specs;
  std::vector<double> loads;
  for (int r = 0; r < kSuiteLoadReps; ++r) {
    if (!TimedLoad(a, &specs, &loads, rep)) {
      return;
    }
  }
  int jobs = Jobs();
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double busy_s = 0.0;
  size_t failed = 0;
  size_t cancelled = 0;
  std::vector<double> scenario_ms;
  std::vector<double> aggregate_ms;
  for (int i = 0; i < kTracedFleetPasses; ++i) {
    FleetPass untraced = RunFleetPass(specs, jobs, /*traced=*/false);
    FleetPass traced = RunFleetPass(specs, jobs, /*traced=*/true);
    untraced_s += untraced.wall_s;
    traced_s += traced.wall_s;
    if (traced.report != untraced.report) {
      rep->Problem("traced fleet report differs from its untraced twin");
    }
    rep->Count(specs.size(), traced.failed + traced.cancelled);
    failed += traced.failed;
    cancelled += traced.cancelled;
    for (double s : traced.scenario_s) {
      busy_s += s;
      scenario_ms.push_back(s * 1e3);
    }
    aggregate_ms.push_back(traced.aggregate_s * 1e3);
  }
  Tail p99 = TailQuantile(scenario_ms, 0.99);
  RunnerStats runner;
  runner.scenario_ms_p50 = Median(scenario_ms);
  runner.scenario_ms_p99 = p99.value;
  runner.worker_busy_share = WorkerBusyShare(busy_s, jobs, traced_s);
  runner.suite_load_ms = Median(loads) * 1e3;
  runner.aggregate_ms = Median(aggregate_ms);
  runner.failed = static_cast<double>(failed);
  runner.cancelled = static_cast<double>(cancelled);
  AddRunnerMetrics(runner, rep);
  rep->Add("tracing_overhead", Ratio(traced_s, untraced_s), "x", "lower");

  // The grid runs no router and no ELEMENT, and ExecuteScenario gives the
  // benchmark no seam inside a scenario, so every other layer reads zero.
  SpanRecorder empty;
  AddSpanMetrics(empty, 0, rep);
  AddLayerCounts(LayerReport{}, 0.0, rep);
  AddErrorMetrics({}, {}, rep);
  Value q = Value::Object();
  q.Set("scenario_samples", Value::Int(static_cast<int64_t>(p99.samples)));
  q.Set("scenario_tail_quantile", Value::Number(p99.quantile));
  rep->Info("runner_percentiles", std::move(q));
  rep->Info("jobs", Value::Int(jobs));
  rep->Info("traced_passes", Value::Int(kTracedFleetPasses));
}

bool ParseArgs(int argc, char** argv, Args* a, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a->trace = value == "1";
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
    } else if (flag == "--suite") {
      a->suite = value;
    } else if (flag == "--trace-out") {
      a->trace_out = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (a->workload != "single_path" && a->workload != "dumbbell_128" &&
      a->workload != "fleet_grid") {
    *error = "unknown workload '" + a->workload + "'";
    return false;
  }
  if (!(a->seconds > 0.0)) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Args a;
  std::string error;
  if (!ParseArgs(argc, argv, &a, &error)) {
    std::fprintf(stderr, "perfbench_sim: %s\n", error.c_str());
    return 2;
  }
  // Numbers from other build types are not comparable with these.
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench_sim: built as %s; only Release builds report\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  Report rep;
  DriverCall single = RunSinglePathDriver;
  DriverCall dumbbell = RunDumbbellDriver;
  if (!a.trace) {
    if (a.workload == "single_path") {
      MeasureSimulation(a, single, kSinglePathSeeds, kSinglePathSimS, &rep);
    } else if (a.workload == "dumbbell_128") {
      MeasureSimulation(a, dumbbell, kDumbbellSeeds, kDumbbellSimS, &rep);
    } else {
      MeasureFleet(a, &rep);
    }
  } else if (a.workload == "single_path") {
    TraceSimulation(a, single, RunSinglePathReplica, kSinglePathSimS, &rep);
  } else if (a.workload == "dumbbell_128") {
    TraceSimulation(a, dumbbell, RunDumbbellReplica, kDumbbellSimS, &rep);
  } else {
    TraceFleet(a, &rep);
  }
  rep.Add("failed_share", FailedShare(rep.attempted(), rep.failed()), "share", "lower");
  rep.Add("peak_rss_mb", PeakRssMiB(), "MiB", "lower");
  rep.Info("build_type", Value::Str(PERFBENCH_BUILD_TYPE));
  rep.Info("compiler", Value::Str(PERFBENCH_COMPILER));
  rep.Info("nproc", Value::Int(Jobs()));
  std::printf("%s\n", rep.ToJson().Dump(-1).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
