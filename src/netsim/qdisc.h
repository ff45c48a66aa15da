// Queueing-discipline interface plus shared statistics. Concrete disciplines
// (PfifoFast, CoDel, FqCoDel, Pie, Red) mirror the Linux qdiscs the paper
// evaluates in Sections 2.2 and 5.

#ifndef ELEMENT_SRC_NETSIM_QDISC_H_
#define ELEMENT_SRC_NETSIM_QDISC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/ring_fifo.h"
#include "src/common/time.h"
#include "src/netsim/packet.h"
#include "src/telemetry/spine.h"

namespace element {

class CoDelState;

struct QdiscStats {
  uint64_t enqueued_packets = 0;
  uint64_t dequeued_packets = 0;
  uint64_t dropped_packets = 0;  // pre-queue + from-queue
  uint64_t ecn_marked_packets = 0;
  uint64_t enqueued_bytes = 0;
  uint64_t dequeued_bytes = 0;

  // Drop breakdown, needed for conservation auditing: a pre-queue drop
  // (tail drop / early drop at Enqueue) rejects a packet that was never
  // counted as enqueued; a from-queue drop (AQM head drop at Dequeue)
  // removes a packet that was.
  uint64_t dropped_pre_queue_packets = 0;
  uint64_t dropped_from_queue_packets = 0;
  uint64_t dropped_from_queue_bytes = 0;
};

// A FIFO of admitted packets and the bytes they hold: the queue under CoDel,
// PIE and RED, each pfifo_fast band and each FQ-CoDel flow. Packets go in
// through Qdisc::Admit and come out through Qdisc::PopHead, so `bytes` is
// kept in one place.
struct PacketQueue {
  RingFifo<Packet> packets;
  int64_t bytes = 0;

  bool empty() const { return packets.empty(); }
  size_t size() const { return packets.size(); }
};

class Qdisc {
 public:
  virtual ~Qdisc() = default;

  // Takes ownership of the packet. Returns false if the packet was dropped.
  virtual bool Enqueue(Packet&& pkt, SimTime now) = 0;
  // Asked by a pipe whose line is idle, before Enqueue. Returning true means
  // `pkt` was counted in and straight out, exactly as Enqueue then Dequeue
  // would have (stamp, stats, records): the pipe transmits it at once, with
  // no queue round trip. Linux's TCQ_F_CAN_BYPASS. Only a discipline whose
  // Enqueue and Dequeue keep no state beyond its queue may say yes.
  virtual bool Bypass(Packet& pkt, SimTime now) {
    (void)pkt;
    (void)now;
    return false;
  }
  // Next packet to transmit, or nullopt if empty. AQMs may drop internally
  // while searching for a survivor.
  virtual std::optional<Packet> Dequeue(SimTime now) = 0;

  virtual size_t packet_count() const = 0;
  virtual int64_t byte_count() const = 0;
  virtual std::string name() const = 0;

  const QdiscStats& stats() const { return stats_; }

  // Routes enqueue/dequeue/drop/mark events into the run's telemetry spine,
  // tagged with `source_id` (the hop index) so multi-hop topologies stay
  // distinguishable. Records are built only while the spine has a consumer;
  // otherwise the Count* helpers pay one or two compares.
  void BindTelemetry(telemetry::TelemetrySpine* spine, uint16_t source_id) {
    spine_ = spine;
    source_id_ = source_id;
  }

  // When enabled, AQM "drop" decisions on ECN-capable packets become CE marks.
  void set_ecn_enabled(bool enabled) { ecn_enabled_ = enabled; }

  // Conservation audit (compiled out in Release): every packet counted as
  // enqueued must be accounted for as dequeued, dropped from the queue, or
  // still queued — in packets and in bytes. Concrete disciplines call this
  // after every Enqueue/Dequeue.
  void AuditConservation() const {
    ELEMENT_AUDIT(stats_.dropped_packets ==
                  stats_.dropped_pre_queue_packets + stats_.dropped_from_queue_packets)
        << name() << ": drop breakdown out of sync: total=" << stats_.dropped_packets
        << " pre=" << stats_.dropped_pre_queue_packets
        << " from_queue=" << stats_.dropped_from_queue_packets;
    ELEMENT_AUDIT(stats_.enqueued_packets == stats_.dequeued_packets +
                                                 stats_.dropped_from_queue_packets +
                                                 packet_count())
        << name() << ": packet conservation violated: enqueued=" << stats_.enqueued_packets
        << " dequeued=" << stats_.dequeued_packets
        << " dropped_from_queue=" << stats_.dropped_from_queue_packets
        << " in_queue=" << packet_count();
    ELEMENT_AUDIT(byte_count() >= 0)
        << name() << ": negative queue occupancy: " << byte_count();
    ELEMENT_AUDIT(stats_.enqueued_bytes ==
                  stats_.dequeued_bytes + stats_.dropped_from_queue_bytes +
                      static_cast<uint64_t>(byte_count()))
        << name() << ": byte conservation violated: enqueued=" << stats_.enqueued_bytes
        << " dequeued=" << stats_.dequeued_bytes
        << " dropped_from_queue=" << stats_.dropped_from_queue_bytes
        << " in_queue=" << byte_count();
  }

  // Test-only: desynchronizes the stats so audit death tests can verify the
  // conservation check actually fires.
  void TestOnlyCorruptStatsForAudit() {  // lint_sim: allow(test-only) -- test hook
    ++stats_.enqueued_packets;
    stats_.enqueued_bytes += 1;
  }

  // Runs AuditConservation() on every exit path of an Enqueue/Dequeue.
  // Declared at the top of each mutating method; a no-op in Release.
  class ScopedConservationAudit {
   public:
    explicit ScopedConservationAudit(const Qdisc* qdisc) : qdisc_(qdisc) {}
    ~ScopedConservationAudit() { qdisc_->AuditConservation(); }

    ScopedConservationAudit(const ScopedConservationAudit&) = delete;
    ScopedConservationAudit& operator=(const ScopedConservationAudit&) = delete;

   private:
    const Qdisc* qdisc_;
  };

 protected:
  // Stamps `pkt` with its admission time, counts it and queues it on `q`.
  void Admit(PacketQueue* q, Packet&& pkt, SimTime now) {
    pkt.enqueued = now;
    q->bytes += pkt.size_bytes;
    CountEnqueue(pkt, now);
    q->packets.push_back(std::move(pkt));
  }
  // Takes the head off a non-empty `q`. The caller counts it (dequeue or
  // drop), after any AQM decision that needs `q` without it.
  static Packet PopHead(PacketQueue* q) {
    Packet pkt = std::move(q->packets.front());
    q->packets.pop_front();
    q->bytes -= pkt.size_bytes;
    return pkt;
  }
  // CoDel's head-drop loop, for CoDel and for each FQ-CoDel flow; defined in
  // codel.h. Pops the head of `q` and hands it to `on_pop`, then asks `state`
  // about its sojourn with the bytes left in `q`. A condemned packet is
  // marked instead where ECN allows; otherwise it is dropped and the next
  // head tried. Returns the first packet let through.
  template <typename OnPop>
  std::optional<Packet> DequeueCoDel(PacketQueue* q, CoDelState* state, SimTime now,
                                     OnPop on_pop);

  // `pkt.enqueued` must still hold the admission time: the record carries the
  // packet's sojourn (the §7 below-TCP queueing probe).
  void CountDequeue(const Packet& pkt, SimTime now) {
    ++stats_.dequeued_packets;
    stats_.dequeued_bytes += pkt.size_bytes;
    EmitRecord(telemetry::RecordKind::kQdiscDequeue, pkt, now, 0,
               static_cast<uint64_t>((now - pkt.enqueued).nanos()));
  }
  // Drop of a packet that was never admitted (tail/early drop at Enqueue).
  void CountDropPreQueue(const Packet& pkt, SimTime now) {
    ++stats_.dropped_packets;
    ++stats_.dropped_pre_queue_packets;
    EmitRecord(telemetry::RecordKind::kQdiscDrop, pkt, now, 0);
  }
  // Drop of an admitted packet (AQM head drop at Dequeue, overflow eviction).
  void CountDropFromQueue(const Packet& pkt, SimTime now) {
    ++stats_.dropped_packets;
    ++stats_.dropped_from_queue_packets;
    stats_.dropped_from_queue_bytes += pkt.size_bytes;
    EmitRecord(telemetry::RecordKind::kQdiscDrop, pkt, now, telemetry::kFlagFromQueue);
  }

  void CountMark(const Packet& pkt, SimTime now) {
    ++stats_.ecn_marked_packets;
    EmitRecord(telemetry::RecordKind::kQdiscMark, pkt, now, 0);
  }

  // AQM helper: marks the packet if ECN applies (returns true = keep packet),
  // otherwise reports that the caller should drop it (returns false).
  bool MarkInsteadOfDrop(Packet& pkt, SimTime now) {
    if (ecn_enabled_ && pkt.ecn_capable && !pkt.ecn_marked) {
      pkt.ecn_marked = true;
      CountMark(pkt, now);
      return true;
    }
    return false;
  }

  // Admission of `pkt`; Admit calls it, and a bypass calls it before
  // CountDequeue.
  void CountEnqueue(const Packet& pkt, SimTime now) {
    ++stats_.enqueued_packets;
    stats_.enqueued_bytes += pkt.size_bytes;
    EmitRecord(telemetry::RecordKind::kQdiscEnqueue, pkt, now, 0);
  }

  QdiscStats stats_;
  bool ecn_enabled_ = false;

 private:
  void EmitRecord(telemetry::RecordKind kind, const Packet& pkt, SimTime now, uint8_t flags,
                  uint64_t aux = 0) {
    if (spine_ == nullptr || !spine_->recording()) {
      return;
    }
    telemetry::TraceRecord r;
    r.t = now;
    r.flow_id = pkt.flow_id;
    r.kind = kind;
    r.flags = flags;
    r.source = source_id_;
    r.size = pkt.size_bytes;
    r.u.range.aux = aux;
    spine_->Dispatch(r);
  }

  telemetry::TelemetrySpine* spine_ = nullptr;
  uint16_t source_id_ = 0;
};

}  // namespace element

#endif  // ELEMENT_SRC_NETSIM_QDISC_H_
