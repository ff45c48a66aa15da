// Thread-pool fleet executor: fans independent deterministic scenarios out
// across worker threads and folds the results into mergeable aggregates.
//
// Parallel-determinism contract: scenarios are handed to workers through an
// atomic cursor, every run owns all of its mutable state (Testbed, EventLoop,
// Rng seeded from the scenario), each worker writes only its own result slot,
// and aggregation folds completed results in scenario order on the caller's
// thread after all workers join. Thread scheduling therefore cannot influence
// any deterministic output: the aggregate JSON for --jobs N is byte-identical
// to --jobs 1.

#ifndef ELEMENT_SRC_RUNNER_FLEET_H_
#define ELEMENT_SRC_RUNNER_FLEET_H_

#include <functional>
#include <string>
#include <vector>

#include "src/runner/experiment.h"
#include "src/runner/scenario.h"

namespace element {

using ScenarioRunFn = std::function<ScenarioResult(const ScenarioSpec&)>;

struct FleetProgress {
  size_t finished = 0;  // completed + failed so far
  size_t total = 0;
  const ScenarioResult* last = nullptr;  // the run that just finished
};

struct FleetOptions {
  int jobs = 1;  // clamped to [1, scenario count]
  // Invoked after every finished run, serialized under the fleet's lock, from
  // worker threads. Must not call back into the fleet.
  std::function<void(const FleetProgress&)> progress;
  ScenarioRunFn run;  // defaults to ExecuteScenario
};

struct FleetSummary {
  std::vector<ScenarioResult> results;  // scenario order, one per spec
  size_t completed = 0;
  size_t failed = 0;
  size_t cancelled = 0;
  int jobs = 1;
  double wall_seconds = 0.0;  // harness metric, not deterministic output
};

// Stops handing out new scenarios after the first failed run (in-flight runs
// still complete; unstarted ones are marked cancelled).
FleetSummary RunFleet(const std::vector<ScenarioSpec>& specs, const FleetOptions& options);

// Fleet-wide mergeable statistics, folded from ScenarioResults in scenario
// order. Everything lives in one MetricRegistry: scenario results' registries
// are folded in wholesale, plus the fleet-level counters "scenarios" and
// "flows". Two partial aggregates combine through `metrics.Merge`
// (associative, commutative up to floating-point sum ordering — the fleet
// always folds in scenario order). ToJson() emits the golden-pinned
// aggregate key set explicitly, so extra registry entries never change its
// bytes.
struct FleetAggregate {
  telemetry::MetricRegistry metrics;

  uint64_t scenarios() const { return metrics.CounterValue("scenarios"); }
  uint64_t flows() const { return metrics.CounterValue("flows"); }
  uint64_t retransmits() const { return metrics.CounterValue("retransmits"); }

  void Add(const ScenarioResult& result);  // completed results only
  json::Value ToJson() const;  // deterministic
};

FleetAggregate AggregateResults(const std::vector<ScenarioResult>& results);

// Deterministic per-scenario result row (no wall-clock fields).
json::Value ResultRowJson(const ScenarioResult& result);

// Full fleet report: suite metadata + per-scenario rows + aggregate, plus a
// "timing" section (wall clock, scenarios/sec, jobs) unless `deterministic`
// strips it for byte-comparison across job counts.
json::Value FleetReportJson(const std::string& suite, const FleetSummary& summary,
                            bool deterministic);

}  // namespace element

#endif  // ELEMENT_SRC_RUNNER_FLEET_H_
