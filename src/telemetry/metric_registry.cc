#include "src/telemetry/metric_registry.h"

namespace element {
namespace telemetry {

uint64_t MetricRegistry::CounterValue(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const Histogram* MetricRegistry::FindHist(const std::string& name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? nullptr : &it->second;
}

const RunningStats* MetricRegistry::FindStats(const std::string& name) const {
  auto it = stats_.find(name);
  return it == stats_.end() ? nullptr : &it->second;
}

const Histogram& MetricRegistry::HistOrEmpty(const std::string& name) const {
  static const Histogram kEmpty;
  const Histogram* h = FindHist(name);
  return h != nullptr ? *h : kEmpty;
}

const RunningStats& MetricRegistry::StatsOrEmpty(const std::string& name) const {
  static const RunningStats kEmpty;
  const RunningStats* s = FindStats(name);
  return s != nullptr ? *s : kEmpty;
}

void MetricRegistry::Merge(const MetricRegistry& other) {
  for (const auto& [name, v] : other.counters_) {
    counters_[name] += v;
  }
  for (const auto& [name, h] : other.hists_) {
    hists_[name].Merge(h);
  }
  for (const auto& [name, s] : other.stats_) {
    stats_[name].Merge(s);
  }
}

json::Value HistogramJson(const Histogram& h) {
  json::Value obj = json::Value::Object();
  obj.Set("count", json::Value::Int(static_cast<int64_t>(h.count())));
  if (h.count() == 0) {
    return obj;
  }
  obj.Set("mean", json::Value::Number(h.mean()));
  obj.Set("min", json::Value::Number(h.min()));
  obj.Set("max", json::Value::Number(h.max()));
  obj.Set("p50", json::Value::Number(h.Quantile(0.50)));
  obj.Set("p90", json::Value::Number(h.Quantile(0.90)));
  obj.Set("p95", json::Value::Number(h.Quantile(0.95)));
  obj.Set("p99", json::Value::Number(h.Quantile(0.99)));
  return obj;
}

json::Value StatsJson(const RunningStats& s) {
  json::Value obj = json::Value::Object();
  obj.Set("count", json::Value::Int(static_cast<int64_t>(s.count())));
  if (s.count() == 0) {
    return obj;
  }
  obj.Set("mean", json::Value::Number(s.mean()));
  obj.Set("stdev", json::Value::Number(s.Stdev()));
  obj.Set("min", json::Value::Number(s.min()));
  obj.Set("max", json::Value::Number(s.max()));
  return obj;
}

}  // namespace telemetry
}  // namespace element
