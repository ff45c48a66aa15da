#include "src/tcpsim/send_scoreboard.h"

#include <algorithm>

#include "src/common/check.h"

namespace element {
namespace {

constexpr uint64_t kFullAuditEvery = 1024;  // operations between whole-window walks

}  // namespace

RingFifo<SendScoreboard::SegMeta>::iterator SendScoreboard::SegmentAtOrAfter(uint64_t seq) {
  return std::lower_bound(outstanding_.begin(), outstanding_.end(), seq,
                          [](const SegMeta& m, uint64_t s) { return m.seq < s; });
}

RingFifo<SendScoreboard::SegMeta>::const_iterator SendScoreboard::SegmentAtOrAfter(
    uint64_t seq) const {
  return std::lower_bound(outstanding_.begin(), outstanding_.end(), seq,
                          [](const SegMeta& m, uint64_t s) { return m.seq < s; });
}

void SendScoreboard::Append(uint64_t seq, uint32_t len, SimTime now, bool app_limited) {
  ELEMENT_DCHECK(seq == nxt_ && len > 0)
      << "new segment [" << seq << "," << seq + len << ") is empty or not at snd_nxt=" << nxt_;
  SegMeta meta;
  meta.seq = seq;
  meta.len = len;
  meta.last_tx = now;
  meta.delivered_at_send = delivered_bytes_;
  meta.delivered_time_at_send = delivered_time_;
  meta.app_limited = app_limited;
  outstanding_.push_back(meta);
  nxt_ = seq + len;
  AfterCall(false);
}

bool SendScoreboard::ApplySack(const SackList& blocks, SimTime now, DeliverySample* sample) {
  // A block SACKs the segments lying wholly inside it. Those already SACKed
  // form runs, so only the gaps between runs are visited, in sequence order.
  uint64_t sacked_before = sacked_bytes_;
  for (const SackBlock& block : blocks) {
    uint64_t cursor = block.begin;
    size_t run = static_cast<size_t>(
        std::upper_bound(sacked_runs_.begin(), sacked_runs_.end(), cursor,
                         [](uint64_t seq, const SeqRange& r) { return seq < r.end; }) -
        sacked_runs_.begin());
    while (cursor < block.end) {
      if (run < sacked_runs_.size() && sacked_runs_[run].begin <= cursor) {
        cursor = sacked_runs_[run++].end;
        continue;
      }
      uint64_t gap_end = block.end;
      if (run < sacked_runs_.size()) {
        gap_end = std::min(gap_end, sacked_runs_[run].begin);
      }
      run = SackGap(cursor, gap_end, run, now, sample);
      cursor = gap_end;
    }
    highest_sacked_ = std::max(highest_sacked_, block.end);
  }
  AfterCall(false);
  return sacked_bytes_ != sacked_before;
}

size_t SendScoreboard::SackGap(uint64_t begin, uint64_t end, size_t run, SimTime now,
                               DeliverySample* sample) {
  auto it = SegmentAtOrAfter(begin);
  if (it == outstanding_.end() || it->seq + it->len > end) {
    return run;
  }
  uint64_t first = it->seq;
  uint64_t last = first;
  for (; it != outstanding_.end() && it->seq + it->len <= end; ++it) {
    SegMeta& meta = *it;
    ELEMENT_DCHECK(!meta.sacked) << "SACKed segment at " << meta.seq
                                 << " outside every SACKed run";
    meta.sacked = true;
    sacked_bytes_ += meta.len;
    if (meta.lost) {
      meta.lost = false;
      lost_bytes_ -= meta.len;
    }
    delivered_bytes_ += meta.len;
    delivered_time_ = now;
    if (!meta.retransmitted) {
      sample->rtt = now - meta.last_tx;
    }
    last = meta.seq + meta.len;
  }
  // Record [first, last) as a run, merged with the neighbours it touches.
  bool joins_left = run > 0 && sacked_runs_[run - 1].end == first;
  bool joins_right = run < sacked_runs_.size() && sacked_runs_[run].begin == last;
  if (joins_left && joins_right) {
    sacked_runs_[run - 1].end = sacked_runs_[run].end;
    sacked_runs_.erase(sacked_runs_.begin() + static_cast<std::ptrdiff_t>(run));
    --run;
  } else if (joins_left) {
    sacked_runs_[run - 1].end = last;
    --run;
  } else if (joins_right) {
    sacked_runs_[run].begin = first;
  } else {
    sacked_runs_.insert(sacked_runs_.begin() + static_cast<std::ptrdiff_t>(run),
                        SeqRange{first, last});
  }
  if constexpr (kAuditsEnabled) {
    AuditRun(run);
  }
  return run;
}

void SendScoreboard::PopTo(uint64_t ack, SimTime now, DeliverySample* sample) {
  ELEMENT_DCHECK(ack > una_ && ack <= nxt_)
      << "cumulative ACK " << ack << " outside (snd_una=" << una_ << ", snd_nxt=" << nxt_ << "]";
  while (!outstanding_.empty() && outstanding_.front().seq + outstanding_.front().len <= ack) {
    const SegMeta& meta = outstanding_.front();
    if (meta.sacked) {
      sacked_bytes_ -= meta.len;
    } else {
      if (meta.lost) {
        lost_bytes_ -= meta.len;  // arrived after all (spurious loss mark)
      }
      delivered_bytes_ += meta.len;
      delivered_time_ = now;
      if (!meta.retransmitted) {
        sample->rtt = now - meta.last_tx;
        TimeDelta interval = now - meta.delivered_time_at_send;
        if (interval > TimeDelta::Zero()) {
          uint64_t delivered_in_interval = delivered_bytes_ - meta.delivered_at_send;
          sample->rate = RateOver(static_cast<int64_t>(delivered_in_interval), interval);
          sample->app_limited = meta.app_limited;
        }
      }
    }
    outstanding_.pop_front();
  }
  una_ = ack;
  // Trim the SACKed runs to the segments still outstanding.
  uint64_t front = outstanding_.empty() ? una_ : outstanding_.front().seq;
  auto trimmed = std::find_if(sacked_runs_.begin(), sacked_runs_.end(),
                              [front](const SeqRange& r) { return r.end > front; });
  sacked_runs_.erase(sacked_runs_.begin(), trimmed);
  if (!sacked_runs_.empty() && sacked_runs_.front().begin < front) {
    sacked_runs_.front().begin = front;
  }
  highest_sacked_ = std::max(highest_sacked_, una_);
  if constexpr (kAuditsEnabled) {
    if (!sacked_runs_.empty()) {
      AuditRun(0);
    }
  }
  AfterCall(false);
}

void SendScoreboard::MarkLost(SegMeta& meta) {
  ELEMENT_DCHECK(!meta.sacked && !meta.lost)
      << "segment at " << meta.seq << " marked lost while " << (meta.lost ? "lost" : "SACKed");
  meta.lost = true;
  lost_bytes_ += meta.len;
  lost_hint_ = std::min(lost_hint_, meta.seq);
}

SendScoreboard::SegMeta* SendScoreboard::LiveRetransmission(const RetxEntry& entry) {
  auto it = SegmentAtOrAfter(entry.seq);
  if (it == outstanding_.end() || it->seq != entry.seq || it->sacked || it->lost ||
      it->last_tx != entry.tx) {
    return nullptr;
  }
  return &*it;
}

bool SendScoreboard::DetectLosses(SimTime now, TimeDelta grace) {
  if (highest_sacked_ <= una_) {
    return false;
  }
  bool newly_lost = false;
  uint64_t loss_edge =
      highest_sacked_ > 3ull * kDefaultMss ? highest_sacked_ - 3ull * kDefaultMss : 0;
  // First pass over the segments the loss edge has newly passed: those
  // neither SACKed, lost nor retransmitted are lost. Retransmissions are
  // re-checked below.
  for (auto it = SegmentAtOrAfter(loss_scanned_);
       it != outstanding_.end() && it->seq + it->len <= loss_edge; ++it) {
    loss_scanned_ = it->seq + it->len;
    if (!it->sacked && !it->lost && !it->retransmitted) {
      MarkLost(*it);
      newly_lost = true;
    }
  }
  // A retransmission is only re-declared lost once it has had its grace to
  // land and be acknowledged. Every entry shares the grace and the FIFO is
  // in send order, so the walk stops at the first live entry still in grace.
  while (!retx_fifo_.empty()) {
    RetxEntry entry = retx_fifo_.front();
    SegMeta* meta = LiveRetransmission(entry);
    if (meta != nullptr && now - entry.tx < grace) {
      break;
    }
    retx_fifo_.pop_front();
    if (meta == nullptr) {
      continue;
    }
    if (meta->seq + meta->len <= loss_edge) {
      MarkLost(*meta);
      newly_lost = true;
    } else {
      retx_side_.push_back(entry);
    }
  }
  // The grace is re-checked here too: the caller's grace grows with srtt and
  // rttvar, so an entry that expired while above the loss edge may be in
  // grace again.
  for (size_t i = 0; i < retx_side_.size();) {
    SegMeta* meta = LiveRetransmission(retx_side_[i]);
    if (meta != nullptr &&
        (meta->seq + meta->len > loss_edge || now - retx_side_[i].tx < grace)) {
      ++i;
      continue;
    }
    if (meta != nullptr) {
      MarkLost(*meta);
      newly_lost = true;
    }
    retx_side_[i] = retx_side_.back();
    retx_side_.pop_back();
  }
  AfterCall(false);
  return newly_lost;
}

std::optional<SeqRange> SendScoreboard::TakeLost(SimTime now) {
  if (lost_bytes_ == 0) {
    return std::nullopt;
  }
  auto it = SegmentAtOrAfter(lost_hint_);
  for (; it != outstanding_.end() && it->seq < highest_sacked_; ++it) {
    SegMeta& meta = *it;
    if (meta.lost) {
      meta.retransmitted = true;
      meta.last_tx = now;
      meta.lost = false;  // back in the pipe
      lost_bytes_ -= meta.len;
      lost_hint_ = meta.seq + meta.len;
      ELEMENT_DCHECK(retx_fifo_.empty() || retx_fifo_.back().tx <= now)
          << "retransmission at " << now.nanos() << "ns before the FIFO's last";
      retx_fifo_.push_back(RetxEntry{meta.seq, now});
      AfterCall(false);
      return SeqRange{meta.seq, meta.seq + meta.len};
    }
  }
  if (it != outstanding_.end()) {
    lost_hint_ = it->seq;  // nothing lost below the walk's stop
  }
  AfterCall(false);
  return std::nullopt;
}

void SendScoreboard::MarkAllLost() {
  for (SegMeta& meta : outstanding_) {
    if (!meta.sacked && !meta.lost) {
      MarkLost(meta);
    }
  }
  highest_sacked_ = std::max(highest_sacked_, nxt_);
  AfterCall(true);
}

// ---------------------------------------------------------------------------
// Audits
// ---------------------------------------------------------------------------

void SendScoreboard::AfterCall(bool whole_window) {
  if constexpr (kAuditsEnabled) {
    AuditTotals();
    ++calls_;
    if (whole_window || calls_ % kFullAuditEvery == 0) {
      AuditWholeWindow();
    }
  }
}

void SendScoreboard::AuditTotals() const {
  ELEMENT_AUDIT(una_ <= nxt_ && una_ <= highest_sacked_)
      << "snd_una=" << una_ << " above snd_nxt=" << nxt_ << " or highest_sacked="
      << highest_sacked_;
  ELEMENT_AUDIT(outstanding_.empty() == (una_ == nxt_))
      << "retransmit queue holds " << outstanding_.size() << " segments, but snd_una=" << una_
      << " snd_nxt=" << nxt_;
  uint64_t front = una_;
  if (!outstanding_.empty()) {
    const SegMeta& first = outstanding_.front();
    const SegMeta& last = outstanding_.back();
    front = first.seq;
    ELEMENT_AUDIT(first.seq <= una_ && una_ < first.seq + first.len &&
                  last.seq + last.len == nxt_)
        << "retransmit queue [" << first.seq << "," << last.seq + last.len
        << ") does not span snd_una=" << una_ << " to snd_nxt=" << nxt_;
  }
  ELEMENT_AUDIT(sacked_bytes_ + lost_bytes_ <= nxt_ - front)
      << "sacked_bytes=" << sacked_bytes_ << " + lost_bytes=" << lost_bytes_
      << " exceed the retransmit queue's " << nxt_ - front << " bytes";
  ELEMENT_AUDIT(sacked_runs_.empty() == (sacked_bytes_ == 0))
      << sacked_runs_.size() << " SACKed runs, but sacked_bytes=" << sacked_bytes_;
  ELEMENT_AUDIT(sacked_runs_.empty() ||
                (sacked_runs_.front().begin >= front &&
                 sacked_runs_.back().end <= std::min(nxt_, highest_sacked_)))
      << "SACKed runs [" << sacked_runs_.front().begin << "," << sacked_runs_.back().end
      << ") outside the retransmit queue [" << front << "," << nxt_
      << ") or above highest_sacked=" << highest_sacked_;
}

void SendScoreboard::AuditRun(size_t run) const {
  const SeqRange& r = sacked_runs_[run];
  ELEMENT_AUDIT(r.begin < r.end && (run == 0 || sacked_runs_[run - 1].end < r.begin) &&
                (run + 1 == sacked_runs_.size() || r.end < sacked_runs_[run + 1].begin))
      << "SACKed run " << run << " [" << r.begin << "," << r.end
      << ") is empty, or touches or overlaps a neighbour";
  auto first = SegmentAtOrAfter(r.begin);
  auto past = SegmentAtOrAfter(r.end);
  ELEMENT_AUDIT(first != outstanding_.end() && first->seq == r.begin && first->sacked &&
                past != outstanding_.begin() && (past - 1)->seq + (past - 1)->len == r.end &&
                (past - 1)->sacked)
      << "SACKed run " << run << " [" << r.begin << "," << r.end
      << ") does not start and end on SACKed segments";
  ELEMENT_AUDIT((first == outstanding_.begin() || !(first - 1)->sacked) &&
                (past == outstanding_.end() || !past->sacked))
      << "SACKed run " << run << " [" << r.begin << "," << r.end
      << ") is not the union of SACKed segments: a SACKed segment touches it";
}

void SendScoreboard::AuditWholeWindow() const {
  for (size_t i = 1; i < retx_fifo_.size(); ++i) {
    ELEMENT_AUDIT(retx_fifo_[i - 1].tx <= retx_fifo_[i].tx)
        << "retransmission FIFO out of send order at entry " << i;
  }
  // The SACKed runs are rebuilt from the queue as it is walked and compared
  // run by run.
  size_t runs_seen = 0;
  SeqRange open_run;
  auto close_run = [&] {
    if (open_run.end == open_run.begin) {
      return;
    }
    ELEMENT_AUDIT(runs_seen < sacked_runs_.size() &&
                  sacked_runs_[runs_seen].begin == open_run.begin &&
                  sacked_runs_[runs_seen].end == open_run.end)
        << "SACKed run " << runs_seen << " is not the union of SACKed segments: expected ["
        << open_run.begin << "," << open_run.end << ")";
    ++runs_seen;
    open_run = SeqRange{};
  };
  uint64_t sacked = 0;
  uint64_t lost = 0;
  uint64_t prev_end = 0;
  size_t retransmissions_in_flight = 0;
  for (const SegMeta& meta : outstanding_) {
    uint64_t seq = meta.seq;
    ELEMENT_AUDIT(seq >= prev_end) << "retransmit queue out of order or overlapping at " << seq
                                   << " (previous end " << prev_end << ")";
    prev_end = seq + meta.len;
    ELEMENT_AUDIT(seq + meta.len <= nxt_)
        << "outstanding segment [" << seq << "," << seq + meta.len << ") past snd_nxt=" << nxt_;
    ELEMENT_AUDIT(seq + meta.len > una_) << "fully-acked segment [" << seq << ","
                                         << seq + meta.len << ") still outstanding, snd_una="
                                         << una_;
    ELEMENT_AUDIT(!(meta.sacked && meta.lost)) << "segment at " << seq << " both sacked and lost";
    if (meta.sacked) {
      sacked += meta.len;
      if (open_run.end != seq) {
        close_run();
        open_run.begin = seq;
      }
      open_run.end = seq + meta.len;
    } else {
      close_run();
    }
    if (meta.lost) {
      lost += meta.len;
      ELEMENT_AUDIT(seq >= lost_hint_) << "lost segment at " << seq
                                       << " below lost_hint=" << lost_hint_;
    }
    ELEMENT_AUDIT(seq + meta.len > loss_scanned_ || meta.sacked || meta.lost ||
                  meta.retransmitted)
        << "segment at " << seq << " below loss_scanned=" << loss_scanned_
        << " neither SACKed, lost nor retransmitted";
    if (meta.retransmitted && !meta.sacked && !meta.lost) {
      ++retransmissions_in_flight;
    }
  }
  close_run();
  // Each retransmission still in flight has exactly one live entry, in the
  // FIFO or the side list: an entry naming its segment and transmit time.
  auto live = [this](const RetxEntry& e) {
    auto it = SegmentAtOrAfter(e.seq);
    return it != outstanding_.end() && it->seq == e.seq && it->retransmitted && !it->sacked &&
           !it->lost && it->last_tx == e.tx;
  };
  size_t live_entries =
      static_cast<size_t>(std::count_if(retx_fifo_.begin(), retx_fifo_.end(), live)) +
      static_cast<size_t>(std::count_if(retx_side_.begin(), retx_side_.end(), live));
  ELEMENT_AUDIT(live_entries == retransmissions_in_flight)
      << retransmissions_in_flight << " retransmissions in flight, but " << live_entries
      << " live retransmission entries";
  ELEMENT_AUDIT(runs_seen == sacked_runs_.size())
      << sacked_runs_.size() << " SACKed runs, but the SACKed segments form " << runs_seen;
  ELEMENT_AUDIT(sacked == sacked_bytes_)
      << "sacked_bytes out of sync: counter=" << sacked_bytes_ << " scoreboard=" << sacked;
  ELEMENT_AUDIT(lost == lost_bytes_)
      << "lost_bytes out of sync: counter=" << lost_bytes_ << " scoreboard=" << lost;
}

}  // namespace element
