// Named, typed metrics with the fleet's merge contract.
//
// Each scenario's summaries (its delay decompositions, estimator errors,
// goodputs and retransmits) go into one MetricRegistry, and the fleet
// aggregate is the registries folded together. The registry is a plain value
// type: copyable, and Merge() folds another registry in with the same
// associativity rules the fleet's per-slot aggregation relies on
// (counters add, distributions merge).
//
// Three metric kinds:
//   counter — monotonic uint64 (events, bytes, drops)
//   hist    — log-scale Histogram (golden-pinned delay decompositions)
//   stats   — RunningStats (mean/stdev summaries, e.g. goodput)
//
// Handles returned by the accessors are stable for the registry's lifetime
// (std::map nodes never move), so producers resolve a name once at bind time
// and bump a raw pointer on the hot path. Exporters read metrics by name
// (the fleet aggregate emits its pinned key set explicitly).

#ifndef ELEMENT_SRC_TELEMETRY_METRIC_REGISTRY_H_
#define ELEMENT_SRC_TELEMETRY_METRIC_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/common/json.h"
#include "src/common/stats.h"

namespace element {
namespace telemetry {

class MetricRegistry {
 public:
  // Accessors create the metric on first use and return a stable handle.
  uint64_t* Counter(const std::string& name) { return &counters_[name]; }
  Histogram* Hist(const std::string& name) { return &hists_[name]; }
  RunningStats* Stats(const std::string& name) { return &stats_[name]; }

  // Read-only lookups; null/zero when absent (for tests and export code that
  // must not create metrics as a side effect).
  uint64_t CounterValue(const std::string& name) const;
  const Histogram* FindHist(const std::string& name) const;
  const RunningStats* FindStats(const std::string& name) const;

  // Like Find*, but absent metrics read as empty distributions — what
  // exporters want so a scenario that produced no samples still emits
  // {"count": 0} exactly as the pre-registry code did.
  const Histogram& HistOrEmpty(const std::string& name) const;
  const RunningStats& StatsOrEmpty(const std::string& name) const;

  bool empty() const {
    return counters_.empty() && hists_.empty() && stats_.empty();
  }

  // Folds `other` in: counters add, hist/stats Merge() (hist geometry must
  // match per Histogram's contract). Associative and commutative.
  void Merge(const MetricRegistry& other);

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, Histogram> hists_;
  std::map<std::string, RunningStats> stats_;
};

// Shared distribution serializers: the pinned key sets every exporter uses
// (fleet aggregate, result rows, trace summaries). Emitting through
// one function is what keeps goldens byte-identical across refactors.
json::Value HistogramJson(const Histogram& h);
json::Value StatsJson(const RunningStats& s);

}  // namespace telemetry
}  // namespace element

#endif  // ELEMENT_SRC_TELEMETRY_METRIC_REGISTRY_H_
