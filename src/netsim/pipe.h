// Pipe = qdisc + rate serializer + propagation/jitter/loss, one direction of
// a path. A transmitted packet flies on a DelayLine, which one or more pipes
// share. DuplexPath pairs two pipes and demultiplexes deliveries to
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

// Packets in flight, each handed to its pipe's `out` sink at its delivery
// time: one FifoTimer and one ring of {out, packet}, however many pipes push
// onto it.
//
// Push times must never decrease (FifoTimer::Push checks this). A pipe's own
// pushes satisfy it, since its deliveries are clamped in order. Several pipes
// may share a line when every one of them adds the same fixed delay and no
// jitter: each push happens at a transmit completion, at time now + d with a
// sequence number drawn then, so keys pushed from all the pipes still never
// decrease, and every packet fires at exactly the (time, seq) key a per-pipe
// line would have given it.
class DelayLine {
 public:
  explicit DelayLine(EventLoop* loop) : timer_(loop, [this] { DeliverFront(); }) {}

  // Delivers `pkt` to `out` at `at` (clamped to now).
  void Push(SimTime at, PacketSink* out, Packet&& pkt) {
    in_flight_.push_back(InFlight{out, std::move(pkt)});
    timer_.Push(at);
  }

 private:
  struct InFlight {
    PacketSink* out;
    Packet pkt;
  };

  void DeliverFront();

  // In step with timer_'s entries: one push onto each per packet, one pop
  // from each per delivery.
  RingFifo<InFlight> in_flight_;
  FifoTimer timer_;
};

class Pipe : public PacketSink {
 public:
  // Transmitted packets fly on `line` (not owned; it must outlive the pipe)
  // and are then delivered to `out`.
  Pipe(EventLoop* loop, Rng rng, std::unique_ptr<Qdisc> qdisc,
       std::unique_ptr<LinkModel> link, DelayLine* line, PacketSink* out);

  // PacketSink: feeding a pipe enqueues into its qdisc.
  void Deliver(Packet pkt) override { Send(std::move(pkt)); }
  // An idle line whose qdisc lets the packet bypass (Qdisc::Bypass) starts
  // transmitting it at once; otherwise it is enqueued.
  void Send(Packet&& pkt);

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

  EventLoop* loop_;
  Rng rng_;
  std::unique_ptr<Qdisc> qdisc_;
  std::unique_ptr<LinkModel> link_;
  DelayLine* line_;
  PacketSink* out_;
  SimTime last_delivery_ = SimTime::Zero();  // enforces in-order delivery

  // Head-of-line packet being serialized (or parked during an outage); the
  // line is busy while it holds one. The serializer timer re-arms in place
  // instead of scheduling fresh events.
  std::optional<Packet> txing_;
  bool parked_ = false;
  Timer tx_timer_;
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
  // One line per direction: a path's links may jitter, so its pipes share
  // no line.
  DelayLine forward_line_;
  DelayLine reverse_line_;
  std::unique_ptr<Pipe> forward_;
  std::unique_ptr<Pipe> reverse_;
  FlowIdAllocator flow_ids_;
};

}  // namespace element

#endif  // ELEMENT_SRC_NETSIM_PIPE_H_
