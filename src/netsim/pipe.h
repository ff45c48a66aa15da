// Pipe = qdisc + rate serializer + propagation/jitter/loss, one direction of
// a path. DuplexPath pairs two pipes and demultiplexes deliveries to
// registered protocol endpoints by flow id.

#ifndef ELEMENT_SRC_NETSIM_PIPE_H_
#define ELEMENT_SRC_NETSIM_PIPE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/check.h"
#include "src/common/ring_fifo.h"
#include "src/common/rng.h"
#include "src/evloop/event_loop.h"
#include "src/netsim/link_model.h"
#include "src/netsim/qdisc.h"

namespace element {

class Pipe : public PacketSink {
 public:
  Pipe(EventLoop* loop, Rng rng, std::unique_ptr<Qdisc> qdisc,
       std::unique_ptr<LinkModel> link, PacketSink* out);

  // PacketSink: feeding a pipe enqueues into its qdisc.
  void Deliver(Packet pkt) override { Send(std::move(pkt)); }
  void Send(Packet pkt);

  Qdisc& qdisc() { return *qdisc_; }

  // Binds this pipe's qdisc to the run's spine under hop id `source_id`.
  void BindTelemetry(telemetry::TelemetrySpine* spine, uint16_t source_id) {
    qdisc_->BindTelemetry(spine, source_id);
  }

  // Queueing + serialization delay a new arrival would currently see.
  TimeDelta CurrentBacklogDelay();  // lint_sim: allow(test-only) -- observer

 private:
  void MaybeStartTransmission();
  void TransmitOrPark();
  void OnTxTimer();
  void OnTransmitComplete();
  void DeliverFront();

  EventLoop* loop_;
  Rng rng_;
  std::unique_ptr<Qdisc> qdisc_;
  std::unique_ptr<LinkModel> link_;
  PacketSink* out_;
  bool busy_ = false;
  SimTime last_delivery_ = SimTime::Zero();  // enforces in-order delivery

  // Head-of-line packet being serialized (or parked during an outage). The
  // serializer timer re-arms in place instead of scheduling fresh events.
  std::optional<Packet> txing_;
  bool parked_ = false;
  Timer tx_timer_;
  // Transmitted packets awaiting propagation delivery, in step with
  // delivery_timer_'s entries: one push onto each per packet, one pop from
  // each per delivery. Delivery times are clamped monotonic, so the link's
  // whole flight is one heap entry and every delivery keeps the key a
  // per-packet Timer armed at the transmit would have had.
  RingFifo<Packet> wire_;
  FifoTimer delivery_timer_;
};

// Routes delivered packets to per-flow endpoints: a table indexed by flow id.
// Ids are small and dense (a FlowIdAllocator counts them up from 1), so the
// table stays proportional to the number of flows in the run and a lookup is
// one bounds check and one load, however many flows end here. Router keeps
// its exact routes in one as well.
class Demux : public PacketSink {
 public:
  void Register(uint64_t flow_id, PacketSink* sink) {
    if (flow_id >= sinks_.size()) {
      // At least the floor, at least double: a run's tables grow once or
      // twice, and a table's length stays within the larger of the floor and
      // twice the largest id registered.
      size_t grown =
          std::max({kMinTableSlots, 2 * sinks_.size(), static_cast<size_t>(flow_id) + 1});
      sinks_.resize(grown, nullptr);
    }
    PacketSink*& slot = sinks_[flow_id];
    // Re-registering a live flow id would silently misdeliver one endpoint's
    // packets to another.
    ELEMENT_DCHECK(slot == nullptr || slot == sink)
        << "flow id " << flow_id << " is still registered";
    slot = sink;
  }
  void Unregister(uint64_t flow_id) {
    if (flow_id < sinks_.size()) {
      sinks_[flow_id] = nullptr;
    }
  }
  // The flow's sink, or nullptr. Never grows the table.
  PacketSink* Find(uint64_t flow_id) const {
    return flow_id < sinks_.size() ? sinks_[flow_id] : nullptr;
  }
  // The table's length: 0 before the first Register, then past the largest
  // id ever registered and at most max(kMinTableSlots, 2 * that id).
  size_t table_size() const { return sinks_.size(); }
  void Deliver(Packet pkt) override;
  uint64_t unroutable_packets() const { return unroutable_; }

 private:
  // The table's length after its first growth: room for ids 1..128 (ids
  // count from 1, so slot 0 stays empty). A host sees one id in every few (a
  // dumbbell hands a pair ids p+1, p+33, ...), so growing to just fit each
  // new id would reallocate at every stride. The floor is kept near 1 KiB: a
  // 256-slot (2 KiB) one made single-path set-up slower, where a host's
  // table holds one id.
  static constexpr size_t kMinTableSlots = 128 + 1;

  std::vector<PacketSink*> sinks_;  // flow id -> sink, nullptr = none
  uint64_t unroutable_ = 0;
};

// Hands out flow ids counting up from 1. A connection lives until the run
// ends, so an id is never handed out twice within a run.
class FlowIdAllocator {
 public:
  uint64_t Allocate() { return next_++; }

 private:
  uint64_t next_ = 1;
};

// One endpoint's attachment: where it transmits and the demux its packets are
// delivered to.
struct Attachment {
  PacketSink* tx = nullptr;
  Demux* rx = nullptr;
};

// A bidirectional path between two hosts ("client" and "server").
class DuplexPath {
 public:
  DuplexPath(EventLoop* loop, Rng* rng, std::unique_ptr<Qdisc> fwd_qdisc,
             std::unique_ptr<LinkModel> fwd_link, std::unique_ptr<Qdisc> rev_qdisc,
             std::unique_ptr<LinkModel> rev_link);

  // client -> server direction.
  Pipe& forward() { return *forward_; }
  // server -> client direction.
  Pipe& reverse() { return *reverse_; }

  // Hop ids: forward qdisc = 0, reverse qdisc = 1.
  void BindTelemetry(telemetry::TelemetrySpine* spine) {
    forward_->BindTelemetry(spine, 0);
    reverse_->BindTelemetry(spine, 1);
  }
  // Endpoints at the server register here to receive forward-direction packets.
  Demux& server_demux() { return server_demux_; }
  // Endpoints at the client register here to receive reverse-direction packets.
  Demux& client_demux() { return client_demux_; }

  // Flow ids for this path's endpoints.
  uint64_t AllocateFlowId() { return flow_ids_.Allocate(); }

 private:
  Demux server_demux_;
  Demux client_demux_;
  std::unique_ptr<Pipe> forward_;
  std::unique_ptr<Pipe> reverse_;
  FlowIdAllocator flow_ids_;
};

}  // namespace element

#endif  // ELEMENT_SRC_NETSIM_PIPE_H_
