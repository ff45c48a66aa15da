#include "src/runner/fleet.h"

#include <atomic>
#include <chrono>  // lint_sim: allow(wall-clock) -- harness timing, not sim state
#include <mutex>
#include <thread>

#include "src/common/check.h"

namespace element {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {  // lint_sim: allow(wall-clock)
  auto now = std::chrono::steady_clock::now();  // lint_sim: allow(wall-clock)
  return std::chrono::duration<double>(now - start).count();
}

}  // namespace

FleetSummary RunFleet(const std::vector<ScenarioSpec>& specs, const FleetOptions& options) {
  FleetSummary summary;
  summary.results.resize(specs.size());
  if (specs.empty()) {
    summary.jobs = 1;
    return summary;
  }

  ScenarioRunFn run = options.run ? options.run : ScenarioRunFn(&ExecuteScenario);
  int jobs = options.jobs < 1 ? 1 : options.jobs;
  if (static_cast<size_t>(jobs) > specs.size()) {
    jobs = static_cast<int>(specs.size());
  }
  summary.jobs = jobs;

  std::atomic<size_t> cursor{0};
  std::atomic<bool> cancelled{false};
  std::atomic<size_t> finished{0};
  std::mutex progress_mu;

  auto start = std::chrono::steady_clock::now();  // lint_sim: allow(wall-clock)

  auto worker = [&]() {
    while (true) {
      size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= specs.size()) {
        return;
      }
      ScenarioResult& slot = summary.results[i];
      if (cancelled.load(std::memory_order_acquire)) {
        slot.spec = specs[i];
        slot.cancelled = true;
        slot.error = "cancelled: an earlier scenario failed";
        continue;
      }
      auto run_start = std::chrono::steady_clock::now();  // lint_sim: allow(wall-clock)
      slot = run(specs[i]);
      slot.wall_seconds = SecondsSince(run_start);
      if (!slot.ok && !slot.cancelled) {
        cancelled.store(true, std::memory_order_release);
      }
      size_t done = finished.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options.progress) {
        std::lock_guard<std::mutex> lock(progress_mu);
        FleetProgress p;
        p.finished = done;
        p.total = specs.size();
        p.last = &slot;
        options.progress(p);
      }
    }
  };

  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(jobs));
    for (int t = 0; t < jobs; ++t) {
      threads.emplace_back(worker);
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }

  summary.wall_seconds = SecondsSince(start);
  for (const ScenarioResult& r : summary.results) {
    if (r.cancelled) {
      ++summary.cancelled;
    } else if (r.ok) {
      ++summary.completed;
    } else {
      ++summary.failed;
    }
  }
  return summary;
}

void FleetAggregate::Add(const ScenarioResult& result) {
  ELEMENT_DCHECK(result.ok) << "aggregating a failed scenario: " << result.spec.Id();
  *metrics.Counter("scenarios") += 1;
  *metrics.Counter("flows") += result.flows.size();
  metrics.Merge(result.metrics);
}

FleetAggregate AggregateResults(const std::vector<ScenarioResult>& results) {
  FleetAggregate agg;
  for (const ScenarioResult& r : results) {
    if (r.ok) {
      agg.Add(r);
    }
  }
  return agg;
}

json::Value FleetAggregate::ToJson() const {
  using telemetry::HistogramJson;
  using telemetry::StatsJson;
  json::Value obj = json::Value::Object();
  obj.Set("scenarios", json::Value::Int(static_cast<int64_t>(scenarios())));
  obj.Set("flows", json::Value::Int(static_cast<int64_t>(flows())));
  obj.Set("retransmits", json::Value::Int(static_cast<int64_t>(retransmits())));
  obj.Set("sender_delay_s", HistogramJson(metrics.HistOrEmpty("sender_delay_s")));
  obj.Set("network_delay_s", HistogramJson(metrics.HistOrEmpty("network_delay_s")));
  obj.Set("receiver_delay_s", HistogramJson(metrics.HistOrEmpty("receiver_delay_s")));
  obj.Set("e2e_delay_s", HistogramJson(metrics.HistOrEmpty("e2e_delay_s")));
  obj.Set("sender_err_s", HistogramJson(metrics.HistOrEmpty("sender_err_s")));
  obj.Set("receiver_err_s", HistogramJson(metrics.HistOrEmpty("receiver_err_s")));
  obj.Set("goodput_mbps", StatsJson(metrics.StatsOrEmpty("goodput_mbps")));
  return obj;
}

json::Value ResultRowJson(const ScenarioResult& result) {
  json::Value row = json::Value::Object();
  row.Set("id", json::Value::Str(result.spec.Id()));
  row.Set("seed", json::Value::Int(static_cast<int64_t>(result.spec.seed)));
  row.Set("app", json::Value::Str(result.spec.app));
  row.Set("profile", json::Value::Str(result.spec.profile));
  row.Set("qdisc", json::Value::Str(result.spec.qdisc));
  row.Set("cc", json::Value::Str(result.spec.cc));
  if (result.cancelled) {
    row.Set("status", json::Value::Str("cancelled"));
    return row;
  }
  if (!result.ok) {
    row.Set("status", json::Value::Str("failed"));
    row.Set("error", json::Value::Str(result.error));
    return row;
  }
  using telemetry::HistogramJson;
  using telemetry::StatsJson;
  row.Set("status", json::Value::Str("ok"));
  row.Set("goodput_mbps", StatsJson(result.metrics.StatsOrEmpty("goodput_mbps")));
  row.Set("sender_delay_s", HistogramJson(result.metrics.HistOrEmpty("sender_delay_s")));
  row.Set("network_delay_s", HistogramJson(result.metrics.HistOrEmpty("network_delay_s")));
  row.Set("receiver_delay_s", HistogramJson(result.metrics.HistOrEmpty("receiver_delay_s")));
  row.Set("e2e_delay_s", HistogramJson(result.metrics.HistOrEmpty("e2e_delay_s")));
  row.Set("retransmits",
          json::Value::Int(static_cast<int64_t>(result.metrics.CounterValue("retransmits"))));
  if (result.has_topology) {
    // Per-row only: the mergeable aggregate's key set is golden-pinned.
    json::Value topo = json::Value::Object();
    topo.Set("topology", json::Value::Str(result.spec.topology));
    topo.Set("jain_fairness", json::Value::Number(result.jain_fairness));
    topo.Set("forwarded_packets", json::Value::Int(static_cast<int64_t>(result.forwarded_packets)));
    topo.Set("unroutable_packets",
             json::Value::Int(static_cast<int64_t>(result.unroutable_packets)));
    topo.Set("cross_flows", json::Value::Int(static_cast<int64_t>(result.cross_flows)));
    topo.Set("cross_bytes", json::Value::Int(static_cast<int64_t>(result.cross_bytes)));
    row.Set("contention", std::move(topo));
  }
  if (result.has_accuracy) {
    json::Value acc = json::Value::Object();
    acc.Set("sender_accuracy", json::Value::Number(result.accuracy.sender.accuracy));
    acc.Set("receiver_accuracy", json::Value::Number(result.accuracy.receiver.accuracy));
    acc.Set("sender_err_s", HistogramJson(result.metrics.HistOrEmpty("sender_err_s")));
    acc.Set("receiver_err_s", HistogramJson(result.metrics.HistOrEmpty("receiver_err_s")));
    row.Set("accuracy", std::move(acc));
  }
  return row;
}

json::Value FleetReportJson(const std::string& suite, const FleetSummary& summary,
                            bool deterministic) {
  json::Value doc = json::Value::Object();
  doc.Set("suite", json::Value::Str(suite));
  json::Value counts = json::Value::Object();
  counts.Set("total", json::Value::Int(static_cast<int64_t>(summary.results.size())));
  counts.Set("completed", json::Value::Int(static_cast<int64_t>(summary.completed)));
  counts.Set("failed", json::Value::Int(static_cast<int64_t>(summary.failed)));
  counts.Set("cancelled", json::Value::Int(static_cast<int64_t>(summary.cancelled)));
  doc.Set("counts", std::move(counts));
  json::Value rows = json::Value::Array();
  for (const ScenarioResult& r : summary.results) {
    rows.Append(ResultRowJson(r));
  }
  doc.Set("scenarios", std::move(rows));
  doc.Set("aggregate", AggregateResults(summary.results).ToJson());
  if (!deterministic) {
    json::Value timing = json::Value::Object();
    timing.Set("jobs", json::Value::Int(summary.jobs));
    timing.Set("wall_seconds", json::Value::Number(summary.wall_seconds));
    double rate = summary.wall_seconds > 0.0
                      ? static_cast<double>(summary.completed) / summary.wall_seconds
                      : 0.0;
    timing.Set("scenarios_per_second", json::Value::Number(rate));
    doc.Set("timing", std::move(timing));
  }
  return doc;
}

}  // namespace element
