// Test support for the sender's SACK scoreboard (src/tcpsim/send_scoreboard.h):
// a whole-window reference it is compared with, the random SACK and ACK
// streams both differential tests draw, and the test peer that reads and
// corrupts its private state.

#ifndef ELEMENT_TESTS_REFERENCE_SCOREBOARD_H_
#define ELEMENT_TESTS_REFERENCE_SCOREBOARD_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/tcpsim/send_scoreboard.h"
#include "src/tcpsim/tcp_segment.h"

namespace element {

// The sender's SACK scoreboard as whole-window walks on every call: SACK
// marking, loss marking and the lowest-lost retransmission pick as they
// were before the scoreboard kept runs, a scan cursor and a retransmission
// FIFO.
class ReferenceScoreboard {
 public:
  struct Seg {
    uint64_t seq = 0;
    uint32_t len = 0;
    bool retransmitted = false;
    bool sacked = false;
    bool lost = false;
    SimTime last_tx;
  };

  explicit ReferenceScoreboard(uint32_t mss) : mss_(mss) {}

  void OnNewData(uint64_t seq, uint32_t len, SimTime now) {
    Seg seg;
    seg.seq = seq;
    seg.len = len;
    seg.last_tx = now;
    segs_.push_back(seg);
    snd_nxt_ = seq + len;
  }

  // The lowest lost segment below the highest SACKed byte, if any.
  Seg* LowestLost() {
    if (lost_bytes_ == 0) {
      return nullptr;
    }
    for (Seg& seg : segs_) {
      if (seg.seq >= highest_sacked_) {
        break;
      }
      if (seg.lost) {
        return &seg;
      }
    }
    return nullptr;
  }

  // Picks and re-sends the lowest lost segment; returns its seq.
  std::optional<uint64_t> Retransmit(SimTime now) {
    Seg* seg = LowestLost();
    if (seg == nullptr) {
      return std::nullopt;
    }
    seg->retransmitted = true;
    seg->last_tx = now;
    seg->lost = false;
    lost_bytes_ -= seg->len;
    ++retransmits_;
    return seg->seq;
  }

  // SACKs every segment lying wholly inside a block; a segment sent once
  // leaves its RTT in `rtt_sample`.
  void ApplySack(const std::vector<SackBlock>& sacks, SimTime now, TimeDelta* rtt_sample) {
    for (const SackBlock& block : sacks) {
      for (Seg& seg : segs_) {
        if (seg.seq < block.begin || seg.seq + seg.len > block.end || seg.sacked) {
          continue;
        }
        seg.sacked = true;
        sacked_bytes_ += seg.len;
        if (seg.lost) {
          seg.lost = false;
          lost_bytes_ -= seg.len;
        }
        if (!seg.retransmitted) {
          *rtt_sample = now - seg.last_tx;
        }
      }
      highest_sacked_ = std::max(highest_sacked_, block.end);
    }
  }

  // The cumulative ACK, clamped to snd_nxt; returns whether it acked data.
  bool PopTo(uint64_t ack_seq, SimTime now, TimeDelta* rtt_sample) {
    uint64_t ack = std::min(ack_seq, snd_nxt_);
    if (ack <= snd_una_) {
      return false;
    }
    while (!segs_.empty() && segs_.front().seq + segs_.front().len <= ack) {
      const Seg& seg = segs_.front();
      if (seg.sacked) {
        sacked_bytes_ -= seg.len;
      } else {
        if (seg.lost) {
          lost_bytes_ -= seg.len;
        }
        if (!seg.retransmitted) {
          *rtt_sample = now - seg.last_tx;
        }
      }
      segs_.pop_front();
    }
    snd_una_ = ack;
    highest_sacked_ = std::max(highest_sacked_, snd_una_);
    return true;
  }

  // Marks lost every segment 3 MSS below the highest SACKed byte that is
  // neither SACKed nor lost, unless it is a retransmission still in its
  // grace. Returns whether it marked any.
  bool MarkLosses(SimTime now, TimeDelta grace) {
    if (highest_sacked_ <= snd_una_) {
      return false;
    }
    bool newly_lost = false;
    uint64_t loss_edge = highest_sacked_ > 3ull * mss_ ? highest_sacked_ - 3ull * mss_ : 0;
    for (Seg& seg : segs_) {
      if (seg.seq + seg.len > loss_edge) {
        break;
      }
      if (seg.sacked || seg.lost) {
        continue;
      }
      if (seg.retransmitted && now - seg.last_tx < grace) {
        continue;
      }
      seg.lost = true;
      lost_bytes_ += seg.len;
      newly_lost = true;
    }
    return newly_lost;
  }

  void OnRto() {
    for (Seg& seg : segs_) {
      if (!seg.sacked && !seg.lost) {
        seg.lost = true;
        lost_bytes_ += seg.len;
      }
    }
    highest_sacked_ = std::max(highest_sacked_, snd_nxt_);
  }

  uint64_t InFlight() const {
    uint64_t total = snd_nxt_ - snd_una_;
    uint64_t gone = sacked_bytes_ + lost_bytes_;
    return gone >= total ? 0 : total - gone;
  }
  const std::deque<Seg>& segs() const { return segs_; }
  uint64_t snd_una() const { return snd_una_; }
  uint64_t snd_nxt() const { return snd_nxt_; }
  uint64_t sacked_bytes() const { return sacked_bytes_; }
  uint64_t lost_bytes() const { return lost_bytes_; }
  uint64_t retransmits() const { return retransmits_; }

 private:
  uint32_t mss_;
  std::deque<Seg> segs_;
  uint64_t snd_una_ = 0;
  uint64_t snd_nxt_ = 0;
  uint64_t sacked_bytes_ = 0;
  uint64_t lost_bytes_ = 0;
  uint64_t highest_sacked_ = 0;
  uint64_t retransmits_ = 0;
};

inline uint64_t SegEnd(const ReferenceScoreboard::Seg& s) { return s.seq + s.len; }

// Mostly a duplicate ACK; sometimes a jump over the first few segments.
inline uint64_t RandomCumulativeAck(const ReferenceScoreboard& ref, Rng& rng) {
  const auto& segs = ref.segs();
  if (segs.empty() || rng.UniformInt(0, 9) < 8) {
    return ref.snd_una();
  }
  int64_t limit = std::min<int64_t>(static_cast<int64_t>(segs.size()), 12);
  return SegEnd(segs[static_cast<size_t>(rng.UniformInt(0, limit - 1))]);
}

// Up to four blocks: aligned on segment boundaries, misaligned, below
// snd_una, or repeated from the previous ACK.
inline std::vector<SackBlock> RandomSackBlocks(const ReferenceScoreboard& ref,
                                               const std::vector<SackBlock>& previous, Rng& rng,
                                               uint32_t mss) {
  const auto& segs = ref.segs();
  std::vector<SackBlock> out;
  int64_t count = rng.UniformInt(0, 4);
  for (int64_t b = 0; b < count && !segs.empty(); ++b) {
    int64_t kind = rng.UniformInt(0, 9);
    if (kind < 2 && !previous.empty()) {
      out.push_back(previous[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(previous.size()) - 1))]);
      continue;
    }
    if (kind == 2) {
      uint64_t end = ref.snd_una() - std::min<uint64_t>(ref.snd_una(), mss);
      out.push_back({end - std::min<uint64_t>(end, 3 * mss), end});
      continue;
    }
    int64_t n = static_cast<int64_t>(segs.size());
    // Skip the first segment most of the time, so holes stay open.
    int64_t first = rng.UniformInt(std::min<int64_t>(1, n - 1), n - 1);
    int64_t last = std::min(n - 1, first + rng.UniformInt(0, 5));
    SackBlock block{segs[static_cast<size_t>(first)].seq, SegEnd(segs[static_cast<size_t>(last)])};
    if (kind >= 8) {
      block.begin += static_cast<uint64_t>(rng.UniformInt(0, mss - 1));
      block.end -= static_cast<uint64_t>(rng.UniformInt(0, mss - 1));
      block.end = std::max(block.end, block.begin + 1);
    }
    out.push_back(block);
  }
  return out;
}

// Reads and corrupts SendScoreboard's private state: the model test compares
// its totals with the reference and forces the whole-window audit, and the
// audit death tests break what only a full walk sees.
class SendScoreboardTestPeer {
 public:
  static uint64_t sacked_bytes(const SendScoreboard& b) { return b.sacked_bytes_; }
  static uint64_t lost_bytes(const SendScoreboard& b) { return b.lost_bytes_; }
  static uint64_t calls(const SendScoreboard& b) { return b.calls_; }
  static size_t side_entries(const SendScoreboard& b) { return b.retx_side_.size(); }

  // The lowest lost segment below the highest SACKed byte, by a walk over
  // the whole window.
  static std::optional<SeqRange> NextLost(const SendScoreboard& b) {
    for (const SendScoreboard::SegMeta& m : b.outstanding_) {
      if (m.seq >= b.highest_sacked_) {
        break;
      }
      if (m.lost) {
        return SeqRange{m.seq, m.seq + m.len};
      }
    }
    return std::nullopt;
  }

  // Every check the scoreboard makes: the per-call totals and the full walk.
  static void AuditAll(const SendScoreboard& b) {
    b.AuditTotals();
    b.AuditWholeWindow();
  }

  // Records a SACKed run past snd_nxt that no segment backs.
  static void AddUnbackedSackedRun(SendScoreboard* b) {
    b->sacked_runs_.push_back(SeqRange{b->nxt_, b->nxt_ + 1});
  }
  // Marks the `index`-th outstanding segment lost without counting its bytes.
  static void FlipLostFlag(SendScoreboard* b, size_t index) { b->outstanding_[index].lost = true; }
};

}  // namespace element

#endif  // ELEMENT_TESTS_REFERENCE_SCOREBOARD_H_
