// Per-flow flight recorder: a bounded ring of TraceRecords. When full the
// ring overwrites the oldest record, so after a long run it holds the most
// recent window of a flow's history — the part post-mortem diagnosis wants —
// at fixed memory cost. Its storage is allocated once, when the ring is
// created, so pushing never allocates.

#ifndef ELEMENT_SRC_TELEMETRY_TRACE_RING_H_
#define ELEMENT_SRC_TELEMETRY_TRACE_RING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/telemetry/record.h"

namespace element {
namespace telemetry {

class TraceRing {
 public:
  explicit TraceRing(size_t capacity_records) : records_(capacity_records) {
    ELEMENT_CHECK(capacity_records > 0) << "trace ring needs capacity";
  }

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Push(const TraceRecord& record) {
    records_[next_] = record;
    next_ = next_ + 1 == records_.size() ? 0 : next_ + 1;
    ++total_;
  }

  // Records currently held (== min(total_pushed, capacity)).
  size_t size() const {
    return total_ < records_.size() ? static_cast<size_t>(total_) : records_.size();
  }
  uint64_t total_pushed() const { return total_; }
  uint64_t overwritten() const {  // lint_sim: allow(test-only) -- recorder read
    return total_ - size();
  }

  // Copies the held records oldest-first.
  std::vector<TraceRecord> Snapshot() const {  // lint_sim: allow(test-only) -- recorder read
    std::vector<TraceRecord> out;
    out.reserve(size());
    for (uint64_t i = total_ - size(); i < total_; ++i) {
      out.push_back(records_[static_cast<size_t>(i % records_.size())]);
    }
    return out;
  }

 private:
  std::vector<TraceRecord> records_;
  size_t next_ = 0;  // slot the next Push writes
  uint64_t total_ = 0;
};

}  // namespace telemetry
}  // namespace element

#endif  // ELEMENT_SRC_TELEMETRY_TRACE_RING_H_
