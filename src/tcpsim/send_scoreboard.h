// The TCP sender's SACK scoreboard: every transmitted, not yet cumulatively
// acknowledged segment and what the sender knows about it (SACKed, lost,
// retransmitted), plus the delivery-rate counters that move exactly where a
// segment is SACKed or ACKed.
//
// It hides how the window is kept so that each operation costs what it
// changes, not the window size: segments sit in a ring in sequence order
// (lookups are binary searches), SACKed segments are also kept as sorted
// runs (a SACK block visits only the gaps between runs), the loss scan keeps
// a cursor (an ACK scans only what the loss edge newly passed), and
// retransmissions wait in a send-order FIFO behind one shared grace period.
// The policy it applies is the socket's: a segment lying 3 MSS below the
// highest SACKed byte is lost; a retransmission is lost again once its grace
// has passed and it lies below that edge; an RTO marks everything un-SACKed
// lost.
//
// It knows no socket, timer, loop, congestion controller or telemetry: the
// caller passes the clock and the grace, so a test can drive it bare.
//
// Audits (compiled out under NDEBUG): every operation checks the O(1)
// totals identities and the entries and runs it touched; every 1024th
// operation and every RTO walk the whole window, so a fault in an entry no
// operation touches is caught at the next full walk.

#ifndef ELEMENT_SRC_TCPSIM_SEND_SCOREBOARD_H_
#define ELEMENT_SRC_TCPSIM_SEND_SCOREBOARD_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/common/data_rate.h"
#include "src/common/ring_fifo.h"
#include "src/common/time.h"
#include "src/tcpsim/tcp_segment.h"

namespace element {

// A half-open byte range [begin, end).
struct SeqRange {
  uint64_t begin = 0;
  uint64_t end = 0;
};

class SendScoreboard {
 public:
  // What the segments an ACK newly delivered measured.
  struct DeliverySample {
    TimeDelta rtt = TimeDelta::Zero();  // the freshest, from a segment sent once
    DataRate rate = DataRate::Zero();   // bytes delivered since its send over the interval
    bool app_limited = false;           // the rate's segment was sent app-limited
  };

  // Bytes the sender believes are in the network: sent and not cumulatively
  // acknowledged, less those SACKed or marked lost.
  uint64_t BytesInFlight() const {
    uint64_t total = nxt_ - una_;
    uint64_t gone = sacked_bytes_ + lost_bytes_;
    return gone >= total ? 0 : total - gone;
  }
  // The window it covers: [una, nxt), the socket's snd_una and snd_nxt.
  uint64_t una() const { return una_; }
  uint64_t nxt() const { return nxt_; }
  uint64_t delivered_bytes() const { return delivered_bytes_; }

  // Starts the delivery-rate clock (at connection establishment).
  void StartDeliveryClock(SimTime now) { delivered_time_ = now; }

  // Records a new segment [seq, seq + len) sent at `now`; `seq` is nxt().
  void Append(uint64_t seq, uint32_t len, SimTime now, bool app_limited);

  // SACKs the segments lying wholly inside a block, sets the highest SACKed
  // byte, and puts the freshest RTT into `sample`. Returns whether any
  // segment was newly SACKed.
  bool ApplySack(const SackList& blocks, SimTime now, DeliverySample* sample);

  // Removes the segments a cumulative ACK up to `ack` covers (una() < ack <=
  // nxt()), filling `sample` from those not SACKed before.
  void PopTo(uint64_t ack, SimTime now, DeliverySample* sample);

  // The loss scan: marks lost what the loss edge (3 MSS below the highest
  // SACKed byte) has passed, and each retransmission below it whose `grace`
  // has run out. Returns whether it marked any segment lost.
  bool DetectLosses(SimTime now, TimeDelta grace);

  // Takes the lowest lost segment below the highest SACKed byte for
  // retransmission at `now`: it is back in flight. nullopt when none.
  std::optional<SeqRange> TakeLost(SimTime now);

  // The RTO: marks every un-SACKed segment lost and raises the highest
  // SACKed byte to nxt(), so TakeLost reaches them all. Walks the whole
  // window in audit builds.
  void MarkAllLost();

 private:
  friend class SendScoreboardTestPeer;  // tests read and corrupt private state through it

  // One transmitted, not yet cumulatively acknowledged segment.
  struct SegMeta {
    uint64_t seq = 0;  // first byte
    uint32_t len = 0;
    bool retransmitted = false;
    bool sacked = false;
    bool lost = false;
    SimTime last_tx;
    // Delivery-rate sampling state captured at (first) transmit.
    uint64_t delivered_at_send = 0;
    SimTime delivered_time_at_send;
    bool app_limited = false;
  };
  // One retransmission, in send order: the segment and its transmit time.
  struct RetxEntry {
    uint64_t seq = 0;
    SimTime tx;
  };

  // First outstanding segment starting at or after `seq`.
  RingFifo<SegMeta>::iterator SegmentAtOrAfter(uint64_t seq);
  RingFifo<SegMeta>::const_iterator SegmentAtOrAfter(uint64_t seq) const;
  // SACKs the segments lying wholly inside the gap [begin, end), none of
  // which is SACKed yet, and records them as a run; `run` indexes the first
  // run past `begin`. Returns the index of the run now holding them.
  size_t SackGap(uint64_t begin, uint64_t end, size_t run, SimTime now, DeliverySample* sample);
  void MarkLost(SegMeta& meta);
  // The segment a retransmission entry names, if that retransmission is
  // still in flight: not acked, SACKed, lost or sent again since.
  SegMeta* LiveRetransmission(const RetxEntry& entry);

  // Audits. AfterCall runs after every operation: the O(1) totals, then the
  // full walk when `whole_window` is set and on every 1024th call.
  void AfterCall(bool whole_window);
  void AuditTotals() const;
  // Run `run` is non-empty, apart from its neighbours, and maximal: SACKed
  // segments start and end it, and the segments just outside are not SACKed.
  void AuditRun(size_t run) const;
  void AuditWholeWindow() const;

  // The retransmit queue: sent, not cumulatively acked segments in sequence
  // order, without gaps or overlap. New data is appended at nxt_ and
  // cumulative ACKs pop the front, so lookups are binary searches over the
  // ring's iterators and the loss/RTO walks run over at most two contiguous
  // spans. The ring grows to the largest window seen and is then reused:
  // no allocation per segment, none at construction.
  RingFifo<SegMeta> outstanding_;
  // The union of SACKed outstanding segments as sorted runs that are
  // disjoint and do not touch. A SACK block visits only the segments in the
  // gaps between runs, and cumulative ACKs trim the front. The vector grows
  // to the most runs seen and is then reused.
  std::vector<SeqRange> sacked_runs_;
  // The loss scan's cursor: every segment ending at or below it has been
  // examined once and is SACKed, lost or retransmitted, so an ACK scans only
  // the segments the loss edge has newly passed.
  uint64_t loss_scanned_ = 0;
  // One entry per retransmission, in send order and so in non-decreasing
  // transmit time. Every entry shares one grace period, so the loss scan
  // pops stale and expired entries and stops at the first one still in
  // grace. The ring grows to the most retransmissions in flight and is
  // reused.
  RingFifo<RetxEntry> retx_fifo_;
  // The rare retransmission whose grace expired while its segment was still
  // above the loss edge: re-checked by every loss scan until it is both
  // below the edge and out of grace.
  std::vector<RetxEntry> retx_side_;
  // No segment starting below it is lost. Every loss mark lowers it and a
  // retransmission moves it past its segment, so TakeLost starts here
  // instead of at the front of outstanding_.
  uint64_t lost_hint_ = 0;

  uint64_t una_ = 0;
  uint64_t nxt_ = 0;
  uint64_t sacked_bytes_ = 0;
  uint64_t lost_bytes_ = 0;
  uint64_t highest_sacked_ = 0;

  // Delivery-rate sampling (tcp rate_sample analogue).
  uint64_t delivered_bytes_ = 0;
  SimTime delivered_time_;

  uint64_t calls_ = 0;  // operations so far, for the full walk's cadence
};

}  // namespace element

#endif  // ELEMENT_SRC_TCPSIM_SEND_SCOREBOARD_H_
