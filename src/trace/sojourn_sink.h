// Per-packet bottleneck sojourn times, read off the telemetry spine — the
// simulation analogue of the eBPF extension the paper's Discussion (§7)
// proposes for tracing below the transport layer (dev_queue_xmit / device):
// it splits the "network delay" into bottleneck queueing and everything else,
// for any discipline. Attach it to a spine with TelemetrySpine::AttachSink;
// it keeps the kQdiscDequeue records of the qdisc bound with `source` (the
// hop index: 0 is a Testbed's forward bottleneck, 2h a Network's hop h).

#ifndef ELEMENT_SRC_TRACE_SOJOURN_SINK_H_
#define ELEMENT_SRC_TRACE_SOJOURN_SINK_H_

#include <cstdint>

#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/telemetry/record.h"

namespace element {

class SojournSink : public telemetry::RecordSink {
 public:
  explicit SojournSink(uint16_t source) : source_(source) {}

  void OnRecord(const telemetry::TraceRecord& r) override {
    if (r.kind == telemetry::RecordKind::kQdiscDequeue && r.source == source_) {
      series_.Add(r.t, TimeDelta::FromNanos(static_cast<int64_t>(r.u.range.aux)).ToSeconds());
    }
  }

  // Sojourn seconds, one point per dequeued packet at its dequeue time.
  const TimeSeries& series() const { return series_; }

 private:
  uint16_t source_;
  TimeSeries series_;
};

}  // namespace element

#endif  // ELEMENT_SRC_TRACE_SOJOURN_SINK_H_
