// CoDel active queue management (Nichols & Jacobson, RFC 8289): drops based
// on packet sojourn time with an inverse-sqrt control law. One of the AQM
// baselines in Figure 3 and the qdisc used in the VR experiment (Figure 18).

#ifndef ELEMENT_SRC_NETSIM_CODEL_H_
#define ELEMENT_SRC_NETSIM_CODEL_H_

#include "src/netsim/qdisc.h"

namespace element {

// CoDel control state at RFC 8289's defaults (a 5 ms target sojourn and a
// 100 ms interval), reusable by FqCoDel for its per-flow queues.
class CoDelState {
 public:
  // Decides the fate of a packet whose sojourn time is known, at dequeue.
  // Returns true if the packet should be dropped (caller may convert the
  // drop to an ECN mark).
  bool ShouldDrop(TimeDelta sojourn, SimTime now, size_t queued_bytes);

 private:
  SimTime ControlLawNext(SimTime t) const;

  bool first_above_valid_ = false;
  SimTime first_above_time_ = SimTime::Zero();
  SimTime drop_next_ = SimTime::Zero();
  uint32_t count_ = 0;
  uint32_t last_count_ = 0;
  bool dropping_ = false;
};

template <typename OnPop>
std::optional<Packet> Qdisc::DequeueCoDel(PacketQueue* q, CoDelState* state, SimTime now,
                                          OnPop on_pop) {
  while (!q->empty()) {
    Packet pkt = PopHead(q);
    on_pop(pkt);
    if (state->ShouldDrop(now - pkt.enqueued, now, static_cast<size_t>(q->bytes)) &&
        !MarkInsteadOfDrop(pkt, now)) {
      CountDropFromQueue(pkt, now);
      continue;
    }
    CountDequeue(pkt, now);
    return pkt;
  }
  return std::nullopt;
}

class CoDel : public Qdisc {
 public:
  explicit CoDel(size_t limit_packets = 1000) : limit_packets_(limit_packets) {}

  bool Enqueue(Packet&& pkt, SimTime now) override;
  std::optional<Packet> Dequeue(SimTime now) override;
  size_t packet_count() const override { return queue_.size(); }
  int64_t byte_count() const override { return queue_.bytes; }
  std::string name() const override { return "codel"; }

 private:
  size_t limit_packets_;
  CoDelState state_;
  PacketQueue queue_;
};

}  // namespace element

#endif  // ELEMENT_SRC_NETSIM_CODEL_H_
