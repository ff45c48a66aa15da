// Qdisc decorator that records per-packet sojourn times — the simulation
// analogue of the eBPF extension the paper's Discussion (§7) proposes for
// tracing below the transport layer (dev_queue_xmit / device): it decomposes
// the "network delay" into bottleneck queueing and everything else, for any
// wrapped discipline.

#ifndef ELEMENT_SRC_NETSIM_INSTRUMENTED_QDISC_H_
#define ELEMENT_SRC_NETSIM_INSTRUMENTED_QDISC_H_

#include <memory>
#include <utility>

#include "src/common/stats.h"
#include "src/netsim/qdisc.h"

namespace element {

class InstrumentedQdisc : public Qdisc {
 public:
  explicit InstrumentedQdisc(std::unique_ptr<Qdisc> inner) : inner_(std::move(inner)) {}

  bool Enqueue(Packet pkt, SimTime now) override {
    bool kept = inner_->Enqueue(std::move(pkt), now);
    MergeInnerStats();
    return kept;
  }

  std::optional<Packet> Dequeue(SimTime now) override {
    std::optional<Packet> pkt = inner_->Dequeue(now);
    if (pkt.has_value()) {
      double sojourn = (now - pkt->enqueued).ToSeconds();
      sojourn_.Add(sojourn);
      if (keep_series_) {
        sojourn_series_.Add(now, sojourn);
      }
    }
    MergeInnerStats();
    return pkt;
  }

  size_t packet_count() const override { return inner_->packet_count(); }
  int64_t byte_count() const override { return inner_->byte_count(); }
  std::string name() const override { return inner_->name() + "+probe"; }

  // Record emission happens where the counting happens: in the wrapped
  // discipline (this decorator's own Count* helpers never run).
  void BindTelemetry(telemetry::TelemetrySpine* spine, uint16_t source_id) override {
    inner_->BindTelemetry(spine, source_id);
  }

  Qdisc& inner() { return *inner_; }
  // Per-packet queueing delay distribution (seconds).
  const SampleSet& sojourn_samples() const { return sojourn_; }
  const TimeSeries& sojourn_series() const { return sojourn_series_; }
  void set_keep_series(bool keep) { keep_series_ = keep; }

 private:
  void MergeInnerStats() { stats_ = inner_->stats(); }

  std::unique_ptr<Qdisc> inner_;
  SampleSet sojourn_;
  TimeSeries sojourn_series_;
  bool keep_series_ = false;
};

}  // namespace element

#endif  // ELEMENT_SRC_NETSIM_INSTRUMENTED_QDISC_H_
