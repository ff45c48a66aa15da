#include "src/tcpsim/tcp_socket.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace element {
namespace {

constexpr uint32_t kSynWireBytes = 60;  // header + MSS/wscale/SACK/TS options
constexpr TimeDelta kMinRto = TimeDelta::FromMillis(200);  // Linux TCP_RTO_MIN
constexpr TimeDelta kInitialRto = TimeDelta::FromSecondsInt(1);  // Linux TCP_TIMEOUT_INIT
constexpr TimeDelta kMaxRto = TimeDelta::FromSecondsInt(60);
constexpr TimeDelta kDelayedAckTimeout = TimeDelta::FromMillis(40);
// Target queueing delay of DRWA's advertised-window cap (see
// Config::drwa_rcv_window_moderation).
constexpr TimeDelta kDrwaTargetDelay = TimeDelta::FromMillis(150);
// Mean process-scheduling latency before the app's readable callback runs;
// models the small baseline receiver-side delay.
constexpr TimeDelta kAppWakeupLatencyMean = TimeDelta::FromMicros(300);
constexpr TimeDelta kSynRetry = TimeDelta::FromSecondsInt(1);

const TcpSegmentPayload& AsTcp(const Packet& pkt) {
  return *static_cast<const TcpSegmentPayload*>(pkt.payload.get());
}

}  // namespace

TcpSocket::TcpSocket(EventLoop* loop, Rng rng, Config config, uint64_t flow_id, PacketSink* tx,
                     Demux* rx_demux)
    : loop_(loop),
      rng_(std::move(rng)),
      config_(config),
      flow_id_(flow_id),
      tx_(tx),
      rx_demux_(rx_demux),
      syn_retry_timer_(loop, [this] { OnSynRetry(); }),
      sndbuf_(kInitialSndBufBytes),
      rto_(kInitialRto),
      rto_timer_(loop, [this] { OnRtoFire(); }),
      pacing_timer_(loop, [this] { TrySendData(); }),
      writable_notify_timer_(loop,
                             [this] {
                               if (writable_cb_) {
                                 writable_cb_();
                               }
                             }),
      delayed_ack_timer_(loop, [this] { SendAck(); }),
      readable_wakeup_timer_(loop, [this] {
        if (ReadableBytes() > 0 && readable_cb_) {
          readable_cb_();
        }
      }) {
  cc_ = MakeCongestionControl(config_.congestion_control);
  rx_demux_->Register(flow_id_, this);
}

TcpSocket::~TcpSocket() {
  // Timers cancel themselves on destruction; nothing scheduled by this socket
  // can fire after this point.
  rx_demux_->Unregister(flow_id_);
}

// ---------------------------------------------------------------------------
// Connection lifecycle
// ---------------------------------------------------------------------------

void TcpSocket::Connect() {
  ELEMENT_DCHECK(state_ == State::kClosed) << "Connect() on a non-closed socket";
  state_ = State::kSynSent;
  established_time_ = loop_->now();  // records SYN time until established
  std::shared_ptr<TcpSegmentPayload> syn = NewSegment();
  syn->syn = true;
  syn->receive_window = AdvertisedWindow();
  EmitSegment(std::move(syn), 0);
  syn_retry_timer_.RestartAfter(kSynRetry);
}

void TcpSocket::OnSynRetry() {
  if (state_ != State::kSynSent) {
    return;
  }
  state_ = State::kClosed;
  Connect();
}

void TcpSocket::Listen() {
  ELEMENT_DCHECK(state_ == State::kClosed) << "Listen() on a non-closed socket";
  state_ = State::kListen;
}

void TcpSocket::BecomeEstablished() {
  state_ = State::kEstablished;
  TimeDelta handshake_rtt = loop_->now() - established_time_;
  established_time_ = loop_->now();
  delivered_time_ = loop_->now();
  cc_->OnConnectionStart(loop_->now(), kDefaultMss);
  if (handshake_rtt > TimeDelta::Zero()) {
    UpdateRtt(handshake_rtt);
  }
  if (established_cb_) {
    established_cb_();
  }
  TrySendData();
}

// ---------------------------------------------------------------------------
// Application I/O
// ---------------------------------------------------------------------------

size_t TcpSocket::SndBufFree() const {
  size_t used = SndBufUsed();
  return used >= sndbuf_ ? 0 : sndbuf_ - used;
}

size_t TcpSocket::Write(size_t n) {
  size_t accepted = std::min(n, SndBufFree());
  if (accepted > 0) {
    if (telemetry_.recording()) {
      telemetry_.Emit(telemetry::TraceRecord::Range(
          telemetry::RecordKind::kAppWrite, flow_id_, loop_->now(), write_seq_,
          write_seq_ + accepted));
    }
    write_seq_ += accepted;
    ++info_version_;  // tcpi_notsent_bytes
    if (established()) {
      TrySendData();
    }
  }
  if (accepted < n) {
    writable_blocked_ = true;
  }
  AuditSequenceInvariants();
  return accepted;
}

size_t TcpSocket::Read(size_t max) {
  size_t n = std::min<uint64_t>(max, ReadableBytes());
  if (n > 0) {
    if (telemetry_.recording()) {
      telemetry_.Emit(telemetry::TraceRecord::Range(
          telemetry::RecordKind::kAppRead, flow_id_, loop_->now(), read_seq_, read_seq_ + n));
    }
    read_seq_ += n;
  }
  AuditSequenceInvariants();
  return n;
}

void TcpSocket::SetSndBuf(size_t bytes) {
  // Like SO_SNDBUF: pins the size and turns off kernel auto-tuning.
  sndbuf_ = bytes;
  sndbuf_autotune_ = false;
  NotifyWritableIfNeeded();
}

// ---------------------------------------------------------------------------
// Sender half
// ---------------------------------------------------------------------------

uint64_t TcpSocket::CwndBytes() const {
  double segments = std::max(cc_->CwndSegments(), 2.0);
  return static_cast<uint64_t>(segments * kDefaultMss);
}

uint64_t TcpSocket::EffectiveInFlight() const {
  // SACK scoreboard pipe: bytes believed to be in the network.
  uint64_t total = snd_nxt_ - snd_una_;
  uint64_t gone = sacked_bytes_ + lost_bytes_;
  return gone >= total ? 0 : total - gone;
}

RingFifo<TcpSocket::SegMeta>::iterator TcpSocket::SegmentAtOrAfter(uint64_t seq) {
  return std::lower_bound(outstanding_.begin(), outstanding_.end(), seq,
                          [](const SegMeta& m, uint64_t s) { return m.seq < s; });
}

bool TcpSocket::RetransmitOneLost() {
  if (lost_bytes_ == 0) {
    return false;
  }
  auto it = SegmentAtOrAfter(lost_hint_);
  for (; it != outstanding_.end() && it->seq < highest_sacked_; ++it) {
    SegMeta& meta = *it;
    if (meta.lost) {
      meta.retransmitted = true;
      meta.last_tx = loop_->now();
      meta.lost = false;  // back in the pipe
      lost_bytes_ -= meta.len;
      lost_hint_ = meta.seq + meta.len;
      retx_fifo_.push_back(RetxEntry{meta.seq, meta.last_tx});
      ++total_retrans_;
      SendDataSegment(meta.seq, meta.len, /*retransmit=*/true);
      return true;
    }
  }
  if (it != outstanding_.end()) {
    lost_hint_ = it->seq;  // nothing lost below the walk's stop
  }
  return false;
}

void TcpSocket::TrySendData() {
  if (!established()) {
    return;
  }
  // RFC 2861: when the connection restarts after an idle period (nothing in
  // flight, nothing sent for >= RTO), let the CC validate its window.
  if (have_send_activity_ && snd_una_ == snd_nxt_ && write_seq_ > snd_nxt_) {
    TimeDelta idle = loop_->now() - last_send_activity_;
    if (idle >= rto_) {
      cc_->OnApplicationIdle(loop_->now(), idle, rto_);
      ++info_version_;  // the window may shrink with nothing sent
    }
  }
  std::optional<DataRate> pacing = cc_->PacingRate();
  while (true) {
    uint64_t window = std::min<uint64_t>(CwndBytes(), peer_rwnd_);
    if (EffectiveInFlight() + kDefaultMss > window) {
      app_limited_now_ = false;
      break;
    }
    if (pacing.has_value() && !pacing->IsZero() && loop_->now() < next_send_time_) {
      if (!pacing_timer_.pending()) {
        pacing_timer_.Restart(next_send_time_);
      }
      break;
    }

    uint32_t sent_len = 0;
    if (RetransmitOneLost()) {
      sent_len = kDefaultMss;  // pacing accounting only
    } else {
      uint64_t avail = write_seq_ - snd_nxt_;
      if (avail == 0) {
        app_limited_now_ = true;
        break;
      }
      if (avail < kDefaultMss && snd_nxt_ > snd_una_) {
        // Nagle: park the sub-MSS tail until outstanding data is ACKed (or
        // the application writes enough to fill a segment).
        app_limited_now_ = true;
        break;
      }
      uint32_t len = static_cast<uint32_t>(std::min<uint64_t>(kDefaultMss, avail));
      SendDataSegment(snd_nxt_, len, /*retransmit=*/false);
      snd_nxt_ += len;
      sent_len = len;
    }
    if (pacing.has_value() && !pacing->IsZero()) {
      SimTime base = std::max(next_send_time_, loop_->now());
      next_send_time_ = base + pacing->TransmitTime(sent_len + kIpTcpHeaderBytes);
    }
  }
}

void TcpSocket::SendDataSegment(uint64_t seq, uint32_t len, bool retransmit) {
  // A retransmission's scoreboard entry was already updated by
  // RetransmitOneLost; new data always starts at snd_nxt_, past every
  // outstanding segment.
  if (!retransmit) {
    ELEMENT_DCHECK(outstanding_.empty() ||
                   outstanding_.back().seq + outstanding_.back().len <= seq)
        << "new segment at " << seq << " below the retransmit queue tail, flow=" << flow_id_;
    SegMeta meta;
    meta.seq = seq;
    meta.len = len;
    meta.last_tx = loop_->now();
    meta.delivered_at_send = delivered_bytes_;
    meta.delivered_time_at_send = delivered_time_;
    meta.app_limited = app_limited_now_;
    outstanding_.push_back(meta);
  }
  if (telemetry_.recording()) {
    telemetry_.Emit(telemetry::TraceRecord::Range(
        telemetry::RecordKind::kTcpTransmit, flow_id_, loop_->now(), seq, seq + len,
        retransmit ? telemetry::kFlagRetransmit : 0));
  }
  cc_->OnPacketSent(loop_->now(), EffectiveInFlight());

  std::shared_ptr<TcpSegmentPayload> seg = NewSegment();
  seg->seq = seq;
  seg->payload_bytes = len;
  seg->ack = true;
  seg->ack_seq = rcv_nxt_;
  seg->receive_window = AdvertisedWindow();
  seg->retransmit = retransmit;
  if (cwr_pending_) {
    seg->cwr = true;
    cwr_pending_ = false;
  }
  last_send_activity_ = loop_->now();
  have_send_activity_ = true;
  EmitSegment(std::move(seg), len);
  // Arm on first transmission; restart on retransmissions so the timer
  // tracks the newest repair attempt (tcp_rearm_rto behaviour) instead of
  // racing with an in-progress SACK recovery.
  if (retransmit || !rto_timer_.pending()) {
    ArmRto();
  }
}

void TcpSocket::UpdateRtt(TimeDelta sample) {
  if (sample <= TimeDelta::Zero()) {
    return;
  }
  min_rtt_ = std::min(min_rtt_, sample);
  if (srtt_.IsZero()) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    TimeDelta err = srtt_ > sample ? srtt_ - sample : sample - srtt_;
    rttvar_ = rttvar_ * 0.75 + err * 0.25;
    srtt_ = srtt_ * 0.875 + sample * 0.125;
  }
  rto_ = std::max(kMinRto, srtt_ + rttvar_ * 4.0);
  rto_ = std::min(rto_, kMaxRto);
}

void TcpSocket::ReactToEcnEcho() {
  TimeDelta spacing = srtt_.IsZero() ? TimeDelta::FromMillis(100) : srtt_;
  if (last_ecn_reaction_ + spacing > loop_->now() && last_ecn_reaction_ > SimTime::Zero()) {
    return;
  }
  last_ecn_reaction_ = loop_->now();
  cwr_pending_ = true;
  cc_->OnLoss(loop_->now(), EffectiveInFlight(), kDefaultMss);
}

void TcpSocket::ProcessSackBlocks(const SackList& blocks, TimeDelta* rtt_sample) {
  // A block SACKs the segments lying wholly inside it. Those already SACKed
  // form runs, so only the gaps between runs are visited, in sequence order.
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
      run = SackGap(cursor, gap_end, run, rtt_sample);
      cursor = gap_end;
    }
    highest_sacked_ = std::max(highest_sacked_, block.end);
  }
}

size_t TcpSocket::SackGap(uint64_t begin, uint64_t end, size_t run, TimeDelta* rtt_sample) {
  auto it = SegmentAtOrAfter(begin);
  if (it == outstanding_.end() || it->seq + it->len > end) {
    return run;
  }
  uint64_t first = it->seq;
  uint64_t last = first;
  for (; it != outstanding_.end() && it->seq + it->len <= end; ++it) {
    SegMeta& meta = *it;
    ELEMENT_DCHECK(!meta.sacked) << "SACKed segment at " << meta.seq
                                 << " outside every SACKed run, flow=" << flow_id_;
    meta.sacked = true;
    sacked_bytes_ += meta.len;
    if (meta.lost) {
      meta.lost = false;
      lost_bytes_ -= meta.len;
    }
    delivered_bytes_ += meta.len;
    delivered_time_ = loop_->now();
    if (!meta.retransmitted) {
      *rtt_sample = loop_->now() - meta.last_tx;
    }
    last = meta.seq + meta.len;
  }
  // Record [first, last) as a run, merged with the neighbours it touches.
  bool joins_left = run > 0 && sacked_runs_[run - 1].end == first;
  bool joins_right = run < sacked_runs_.size() && sacked_runs_[run].begin == last;
  if (joins_left && joins_right) {
    sacked_runs_[run - 1].end = sacked_runs_[run].end;
    sacked_runs_.erase(sacked_runs_.begin() + static_cast<std::ptrdiff_t>(run));
    return run - 1;
  }
  if (joins_left) {
    sacked_runs_[run - 1].end = last;
    return run - 1;
  }
  if (joins_right) {
    sacked_runs_[run].begin = first;
    return run;
  }
  sacked_runs_.insert(sacked_runs_.begin() + static_cast<std::ptrdiff_t>(run),
                      SeqRange{first, last});
  return run;
}

void TcpSocket::MarkLost(SegMeta& meta) {
  meta.lost = true;
  lost_bytes_ += meta.len;
  lost_hint_ = std::min(lost_hint_, meta.seq);
}

TcpSocket::SegMeta* TcpSocket::LiveRetransmission(const RetxEntry& entry) {
  auto it = SegmentAtOrAfter(entry.seq);
  if (it == outstanding_.end() || it->seq != entry.seq || it->sacked || it->lost ||
      it->last_tx != entry.tx) {
    return nullptr;
  }
  return &*it;
}

void TcpSocket::MarkLosses() {
  if (highest_sacked_ <= snd_una_) {
    return;
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
  // A retransmission is only re-declared lost once it has had a full RTT
  // (plus variance headroom) to land and be acknowledged; a tighter guard
  // produces spurious duplicate retransmissions. Every entry shares this
  // grace and the FIFO is in send order, so the walk stops at the first live
  // entry still in grace.
  TimeDelta retx_grace = srtt_ + std::max(rttvar_ * 4.0, srtt_ * 0.5);
  while (!retx_fifo_.empty()) {
    RetxEntry entry = retx_fifo_.front();
    SegMeta* meta = LiveRetransmission(entry);
    if (meta != nullptr && loop_->now() - entry.tx < retx_grace) {
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
  // The grace is re-checked here too: it grows with srtt and rttvar, so an
  // entry that expired while above the loss edge may be in grace again.
  for (size_t i = 0; i < retx_side_.size();) {
    SegMeta* meta = LiveRetransmission(retx_side_[i]);
    if (meta != nullptr && (meta->seq + meta->len > loss_edge ||
                            loop_->now() - retx_side_[i].tx < retx_grace)) {
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
  if (newly_lost && !in_recovery_) {
    in_recovery_ = true;
    recovery_end_ = snd_nxt_;
    EmitCcEpisode(telemetry::CcEpisode::kRecovery);
    cc_->OnLoss(loop_->now(), EffectiveInFlight(), kDefaultMss);
    MaybeAutotuneSndbuf();
  }
}

void TcpSocket::OnAckSegment(const TcpSegmentPayload& seg) {
  peer_rwnd_ = seg.receive_window;
  if (seg.ece && config_.ecn) {
    ReactToEcnEcho();
  }

  TimeDelta rtt_sample = TimeDelta::Zero();
  DataRate rate_sample = DataRate::Zero();
  bool sample_app_limited = false;
  uint64_t sacked_before = sacked_bytes_;
  ProcessSackBlocks(seg.sacks, &rtt_sample);
  if (sacked_bytes_ != sacked_before && snd_una_ < snd_nxt_) {
    ArmRto();  // forward progress via SACK also defers the timeout
  }

  uint64_t ack = std::min(seg.ack_seq, snd_nxt_);
  uint64_t acked = 0;
  if (ack > snd_una_) {
    acked = ack - snd_una_;
    if (telemetry_.recording()) {
      telemetry::TraceRecord r = telemetry::TraceRecord::Range(
          telemetry::RecordKind::kSegmentAcked, flow_id_, loop_->now(), snd_una_, ack);
      r.u.range.aux = ack;  // snd_una after this ACK
      telemetry_.Emit(r);
    }
    while (!outstanding_.empty() &&
           outstanding_.front().seq + outstanding_.front().len <= ack) {
      const SegMeta& meta = outstanding_.front();
      if (meta.sacked) {
        sacked_bytes_ -= meta.len;
      } else {
        if (meta.lost) {
          lost_bytes_ -= meta.len;  // arrived after all (spurious loss mark)
        }
        delivered_bytes_ += meta.len;
        delivered_time_ = loop_->now();
        if (!meta.retransmitted) {
          rtt_sample = loop_->now() - meta.last_tx;
          TimeDelta interval = loop_->now() - meta.delivered_time_at_send;
          if (interval > TimeDelta::Zero()) {
            uint64_t delivered_in_interval = delivered_bytes_ - meta.delivered_at_send;
            rate_sample = RateOver(static_cast<int64_t>(delivered_in_interval), interval);
            sample_app_limited = meta.app_limited;
          }
        }
      }
      outstanding_.pop_front();
    }
    snd_una_ = ack;
    // Trim the SACKed runs to the segments still outstanding.
    uint64_t front = outstanding_.empty() ? snd_una_ : outstanding_.front().seq;
    auto trimmed =
        std::find_if(sacked_runs_.begin(), sacked_runs_.end(),
                     [front](const SeqRange& r) { return r.end > front; });
    sacked_runs_.erase(sacked_runs_.begin(), trimmed);
    if (!sacked_runs_.empty() && sacked_runs_.front().begin < front) {
      sacked_runs_.front().begin = front;
    }
    if (highest_sacked_ < snd_una_) {
      highest_sacked_ = snd_una_;
    }
  }

  MarkLosses();

  if (acked > 0) {
    if (rtt_sample > TimeDelta::Zero()) {
      UpdateRtt(rtt_sample);
    }
    if (!rate_sample.IsZero()) {
      latest_rate_sample_ = rate_sample;
    }
    if (in_recovery_ && snd_una_ >= recovery_end_) {
      in_recovery_ = false;
      EmitCcEpisode(telemetry::CcEpisode::kOpen);
    }

    AckSample sample;
    sample.now = loop_->now();
    sample.acked_bytes = acked;
    sample.bytes_in_flight = EffectiveInFlight();
    sample.rtt = rtt_sample;
    sample.srtt = srtt_;
    sample.min_rtt = min_rtt_;
    sample.delivered_bytes = delivered_bytes_;
    sample.delivery_rate = rate_sample;
    sample.app_limited = sample_app_limited;
    sample.in_recovery = in_recovery_;
    sample.mss = kDefaultMss;
    cc_->OnAck(sample);

    MaybeAutotuneSndbuf();
    rto_backoff_ = 0;
    if (snd_una_ == snd_nxt_) {
      CancelRto();
    } else {
      ArmRto();
    }
    NotifyWritableIfNeeded();
  }
  TrySendData();
}

void TcpSocket::MaybeAutotuneSndbuf() {
  if (!sndbuf_autotune_) {
    return;
  }
  // Linux tcp_new_space keeps sk_sndbuf around twice the congestion window
  // and never shrinks it — the ratchet that, combined with loss-based CC,
  // produces the paper's sender-side bufferbloat.
  uint64_t target = 2 * CwndBytes() + 16 * kDefaultMss;
  if (target > sndbuf_) {
    sndbuf_ = std::min<uint64_t>(target, config_.sndbuf_max_bytes);
    NotifyWritableIfNeeded();
  }
}

void TcpSocket::ArmRto() {
  TimeDelta effective = rto_;
  for (int i = 0; i < rto_backoff_ && effective < kMaxRto; ++i) {
    effective = std::min(effective * 2.0, kMaxRto);
  }
  rto_timer_.RestartAfter(effective);
}

void TcpSocket::CancelRto() { rto_timer_.Cancel(); }

void TcpSocket::OnRtoFire() {
  if (snd_una_ >= snd_nxt_) {
    return;
  }
  cc_->OnRetransmissionTimeout(loop_->now());
  ++info_version_;  // the window collapses even if pacing holds the resend
  in_recovery_ = false;
  EmitCcEpisode(telemetry::CcEpisode::kRtoRecovery);
  ++rto_backoff_;
  // Mark every un-SACKed outstanding segment lost; the scoreboard-driven
  // retransmission path resends them under the collapsed window. snd_nxt_ is
  // never rewound, so late cumulative ACKs keep their meaning, and resends
  // are tagged as retransmissions (Karn's rule holds for RTT samples).
  for (SegMeta& meta : outstanding_) {
    if (!meta.sacked && !meta.lost) {
      MarkLost(meta);
    }
  }
  // Allow the lowest lost segment through even if highest_sacked_ is behind.
  highest_sacked_ = std::max(highest_sacked_, snd_nxt_);
  ArmRto();
  TrySendData();
  AuditSequenceInvariants();
}

void TcpSocket::NotifyWritableIfNeeded() {
  if (!writable_blocked_ || SndBufFree() < kDefaultMss) {
    return;
  }
  writable_blocked_ = false;
  if (writable_cb_) {
    writable_notify_timer_.RestartAfter(TimeDelta::Zero());
  }
}

// ---------------------------------------------------------------------------
// Receiver half
// ---------------------------------------------------------------------------

uint64_t TcpSocket::AdvertisedWindow() const {
  uint64_t occupancy = (rcv_nxt_ - read_seq_) + ooo_bytes_;
  uint64_t window = occupancy >= kRcvBufBytes ? 0 : kRcvBufBytes - occupancy;
  if (config_.drwa_rcv_window_moderation && rcv_rate_bytes_per_s_ > 0.0) {
    uint64_t cap = static_cast<uint64_t>(rcv_rate_bytes_per_s_ *
                                         kDrwaTargetDelay.ToSeconds());
    cap = std::max<uint64_t>(cap, 4ull * kDefaultMss);  // never choke to zero
    window = std::min(window, cap);
  }
  return window;
}

void TcpSocket::OnDataSegment(const Packet& pkt, const TcpSegmentPayload& seg) {
  // Arrival-rate EWMA over 200 ms windows (feeds DRWA window moderation).
  if (config_.drwa_rcv_window_moderation) {
    rcv_rate_window_bytes_ += seg.payload_bytes;
    TimeDelta window_len = loop_->now() - rcv_rate_window_start_;
    if (window_len >= TimeDelta::FromMillis(200)) {
      double inst = static_cast<double>(rcv_rate_window_bytes_) / window_len.ToSeconds();
      rcv_rate_bytes_per_s_ =
          rcv_rate_bytes_per_s_ <= 0.0 ? inst : 0.75 * rcv_rate_bytes_per_s_ + 0.25 * inst;
      rcv_rate_window_bytes_ = 0;
      rcv_rate_window_start_ = loop_->now();
    }
  }
  if (pkt.ecn_marked) {
    echo_ece_ = true;
  }
  if (seg.cwr) {
    echo_ece_ = false;
  }
  uint64_t seq = seg.seq;
  uint64_t end = seq + seg.payload_bytes;

  if (end <= rcv_nxt_) {
    SendAck();  // stale duplicate; re-ack
    return;
  }
  if (seq <= rcv_nxt_) {
    if (telemetry_.recording()) {
      telemetry_.Emit(telemetry::TraceRecord::Range(
          telemetry::RecordKind::kTcpRxSegment, flow_id_, loop_->now(), rcv_nxt_, end));
    }
    rcv_nxt_ = end;
    // Absorb every buffered range the new edge reaches, then drop them in
    // one erase.
    auto it = out_of_order_.begin();
    for (; it != out_of_order_.end() && it->begin <= rcv_nxt_; ++it) {
      rcv_nxt_ = std::max(rcv_nxt_, it->end);
      ooo_bytes_ -= it->end - it->begin;
    }
    bool filled_hole = it != out_of_order_.begin();
    out_of_order_.erase(out_of_order_.begin(), it);
    ++segs_since_ack_;
    if (filled_hole || segs_since_ack_ >= 2 || !out_of_order_.empty()) {
      SendAck();
    } else {
      ScheduleDelayedAck();
    }
    ScheduleReadableWakeup();
  } else {
    // Out of order: buffer the bytes no block holds yet, merging every block
    // the arrival overlaps or touches into one, and send an immediate
    // duplicate ACK with SACK. A fully covered arrival is a duplicate.
    auto first = std::lower_bound(out_of_order_.begin(), out_of_order_.end(), seq,
                                  [](const SeqRange& b, uint64_t s) { return b.end < s; });
    auto last = first;
    uint64_t covered = 0;
    for (; last != out_of_order_.end() && last->begin <= end; ++last) {
      covered += std::min(end, last->end) - std::max(seq, last->begin);
    }
    if (covered < end - seq) {
      ooo_bytes_ += (end - seq) - covered;
      SeqRange merged{seq, end};
      if (first != last) {
        merged.begin = std::min(seq, first->begin);
        merged.end = std::max(end, (last - 1)->end);
        *first = merged;
        out_of_order_.erase(first + 1, last);
      } else {
        out_of_order_.insert(first, merged);
      }
      sack_hint_ = seq;
      if (telemetry_.recording()) {
        telemetry_.Emit(telemetry::TraceRecord::Range(
            telemetry::RecordKind::kTcpRxSegment, flow_id_, loop_->now(), seq, end,
            telemetry::kFlagOutOfOrder));
      }
    }
    SendAck();
  }
}

void TcpSocket::SendAck() {
  segs_since_ack_ = 0;
  delayed_ack_timer_.Cancel();
  std::shared_ptr<TcpSegmentPayload> ack = NewSegment();
  ack->ack = true;
  ack->ack_seq = rcv_nxt_;
  ack->receive_window = AdvertisedWindow();
  ack->ece = echo_ece_;

  if (!out_of_order_.empty()) {
    // Report the block holding the most recent arrival first (RFC 2018),
    // then the blocks above it, wrapping around to the lowest, up to
    // kMaxSackBlocks. With no block holding the hint, the report starts at
    // the lowest block.
    size_t n = out_of_order_.size();
    size_t start = static_cast<size_t>(
        std::upper_bound(out_of_order_.begin(), out_of_order_.end(), sack_hint_,
                         [](uint64_t s, const SeqRange& b) { return s < b.end; }) -
        out_of_order_.begin());
    if (start == n || out_of_order_[start].begin > sack_hint_) {
      start = 0;
    }
    size_t count = std::min(n, TcpSegmentPayload::kMaxSackBlocks);
    for (size_t i = 0; i < count; ++i) {
      const SeqRange& b = out_of_order_[(start + i) % n];
      ack->sacks.push_back(SackBlock{b.begin, b.end});
    }
  }
  EmitSegment(std::move(ack), 0);
}

void TcpSocket::ScheduleDelayedAck() {
  if (delayed_ack_timer_.pending()) {
    return;
  }
  delayed_ack_timer_.RestartAfter(kDelayedAckTimeout);
}

void TcpSocket::ScheduleReadableWakeup() {
  if (readable_wakeup_timer_.pending() || !readable_cb_) {
    return;
  }
  TimeDelta latency =
      TimeDelta::FromSeconds(rng_.Exponential(kAppWakeupLatencyMean.ToSeconds()));
  readable_wakeup_timer_.RestartAfter(latency);
}

// ---------------------------------------------------------------------------
// Shared plumbing
// ---------------------------------------------------------------------------

std::shared_ptr<TcpSegmentPayload> TcpSocket::NewSegment() {
  return MakePooledPayload<TcpSegmentPayload>(loop_->payload_arena());
}

void TcpSocket::EmitSegment(std::shared_ptr<TcpSegmentPayload> seg, uint32_t payload_bytes,
                            uint32_t priority_band) {
  Packet pkt;
  pkt.flow_id = flow_id_;
  pkt.priority_band = priority_band;
  pkt.created = loop_->now();
  if (seg->syn) {
    pkt.size_bytes = kSynWireBytes;
  } else {
    pkt.size_bytes = kIpTcpHeaderBytes + payload_bytes +
                     static_cast<uint32_t>(seg->sacks.empty() ? 0 : 4 + 8 * seg->sacks.size());
  }
  pkt.ecn_capable = config_.ecn && payload_bytes > 0;
  pkt.payload = std::move(seg);
  ++segs_out_;
  ++info_version_;
  tx_->Deliver(std::move(pkt));
}

void TcpSocket::Deliver(Packet pkt) {
  const TcpSegmentPayload& seg = AsTcp(pkt);
  ++segs_in_;
  ++info_version_;

  switch (state_) {
    case State::kClosed:
      return;
    case State::kListen:
      if (seg.syn && !seg.ack) {
        peer_rwnd_ = seg.receive_window;
        BecomeEstablished();
        std::shared_ptr<TcpSegmentPayload> synack = NewSegment();
        synack->syn = true;
        synack->ack = true;
        synack->ack_seq = 0;
        synack->receive_window = AdvertisedWindow();
        EmitSegment(std::move(synack), 0);
      }
      return;
    case State::kSynSent:
      if (seg.syn && seg.ack) {
        syn_retry_timer_.Cancel();
        peer_rwnd_ = seg.receive_window;
        BecomeEstablished();
        SendAck();
      }
      return;
    case State::kEstablished:
      break;
  }

  if (seg.syn) {
    // Duplicate SYN (our SYN-ACK was lost): repeat it.
    std::shared_ptr<TcpSegmentPayload> synack = NewSegment();
    synack->syn = true;
    synack->ack = true;
    synack->receive_window = AdvertisedWindow();
    EmitSegment(std::move(synack), 0);
    return;
  }
  if (seg.payload_bytes > 0) {
    OnDataSegment(pkt, seg);
  }
  if (seg.ack) {
    OnAckSegment(seg);
  }
  AuditSequenceInvariants();
}

void TcpSocket::AuditSequenceInvariants() const {
  if constexpr (!kAuditsEnabled) {
    return;
  }
  // -- sender sequence space --
  ELEMENT_AUDIT(snd_una_ <= snd_nxt_)
      << "snd_una=" << snd_una_ << " > snd_nxt=" << snd_nxt_ << " flow=" << flow_id_;
  ELEMENT_AUDIT(snd_nxt_ <= write_seq_)
      << "snd_nxt=" << snd_nxt_ << " beyond app writes=" << write_seq_ << " flow=" << flow_id_;

  // -- SACK scoreboard vs. the retransmit queue --
  for (size_t i = 1; i < retx_fifo_.size(); ++i) {
    ELEMENT_AUDIT(retx_fifo_[i - 1].tx <= retx_fifo_[i].tx)
        << "retransmission FIFO out of send order at entry " << i << " flow=" << flow_id_;
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
        << open_run.begin << "," << open_run.end << ") flow=" << flow_id_;
    ++runs_seen;
    open_run = SeqRange{};
  };
  uint64_t sacked = 0;
  uint64_t lost = 0;
  uint64_t prev_end = 0;
  size_t retransmissions_in_flight = 0;
  for (const SegMeta& meta : outstanding_) {
    uint64_t seq = meta.seq;
    ELEMENT_AUDIT(seq >= prev_end)
        << "retransmit queue out of order or overlapping at " << seq << " (previous end "
        << prev_end << ") flow=" << flow_id_;
    prev_end = seq + meta.len;
    ELEMENT_AUDIT(seq + meta.len <= snd_nxt_)
        << "outstanding segment [" << seq << "," << seq + meta.len << ") past snd_nxt="
        << snd_nxt_ << " flow=" << flow_id_;
    ELEMENT_AUDIT(seq + meta.len > snd_una_)
        << "fully-acked segment [" << seq << "," << seq + meta.len
        << ") still outstanding, snd_una=" << snd_una_ << " flow=" << flow_id_;
    ELEMENT_AUDIT(!(meta.sacked && meta.lost))
        << "segment at " << seq << " both sacked and lost, flow=" << flow_id_;
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
      ELEMENT_AUDIT(seq >= lost_hint_)
          << "lost segment at " << seq << " below lost_hint=" << lost_hint_
          << " flow=" << flow_id_;
    }
    ELEMENT_AUDIT(seq + meta.len > loss_scanned_ || meta.sacked || meta.lost ||
                  meta.retransmitted)
        << "segment at " << seq << " below loss_scanned=" << loss_scanned_
        << " neither SACKed, lost nor retransmitted, flow=" << flow_id_;
    if (meta.retransmitted && !meta.sacked && !meta.lost) {
      ++retransmissions_in_flight;
    }
  }
  close_run();
  // Each retransmission still in flight has exactly one live entry, in the
  // FIFO or the side list: an entry naming its segment and transmit time.
  // The queue is contiguous and nearly all segments are one MSS long, so the
  // lookup tries the index that implies before a binary search; the FIFO can
  // hold thousands of entries.
  size_t live_entries = 0;
  auto count_live = [&](const RetxEntry& e) {
    if (outstanding_.empty() || e.seq < outstanding_.front().seq) {
      return;
    }
    size_t guess = static_cast<size_t>((e.seq - outstanding_.front().seq) / kDefaultMss);
    const SegMeta* meta = nullptr;
    if (guess < outstanding_.size() && outstanding_[guess].seq == e.seq) {
      meta = &outstanding_[guess];
    } else {
      auto it = std::lower_bound(outstanding_.begin(), outstanding_.end(), e.seq,
                                 [](const SegMeta& m, uint64_t s) { return m.seq < s; });
      meta = it != outstanding_.end() && it->seq == e.seq ? &*it : nullptr;
    }
    if (meta != nullptr && meta->retransmitted && !meta->sacked && !meta->lost &&
        meta->last_tx == e.tx) {
      ++live_entries;
    }
  };
  std::for_each(retx_fifo_.begin(), retx_fifo_.end(), count_live);
  std::for_each(retx_side_.begin(), retx_side_.end(), count_live);
  ELEMENT_AUDIT(live_entries == retransmissions_in_flight)
      << retransmissions_in_flight << " retransmissions in flight, but " << live_entries
      << " live retransmission entries, flow=" << flow_id_;
  ELEMENT_AUDIT(runs_seen == sacked_runs_.size())
      << sacked_runs_.size() << " SACKed runs, but the SACKed segments form " << runs_seen
      << " flow=" << flow_id_;
  ELEMENT_AUDIT(sacked == sacked_bytes_)
      << "sacked_bytes out of sync: counter=" << sacked_bytes_ << " scoreboard=" << sacked
      << " flow=" << flow_id_;
  ELEMENT_AUDIT(lost == lost_bytes_)
      << "lost_bytes out of sync: counter=" << lost_bytes_ << " scoreboard=" << lost
      << " flow=" << flow_id_;

  // -- receiver sequence space --
  ELEMENT_AUDIT(read_seq_ <= rcv_nxt_)
      << "app read past rcv_nxt: read_seq=" << read_seq_ << " rcv_nxt=" << rcv_nxt_
      << " flow=" << flow_id_;
  uint64_t ooo = 0;
  uint64_t prev_block_end = rcv_nxt_;
  for (const SeqRange& b : out_of_order_) {
    ELEMENT_AUDIT(b.begin > prev_block_end && b.end > b.begin)
        << "out-of-order block [" << b.begin << "," << b.end << ") empty, or not clear of"
        << " rcv_nxt=" << rcv_nxt_ << " and the previous block's end " << prev_block_end
        << " flow=" << flow_id_;
    prev_block_end = b.end;
    ooo += b.end - b.begin;
  }
  ELEMENT_AUDIT(ooo == ooo_bytes_)
      << "ooo_bytes out of sync: counter=" << ooo_bytes_ << " queue=" << ooo
      << " flow=" << flow_id_;
}

void TcpSocket::TestOnlyCorruptSequenceStateForAudit() {
  snd_una_ = snd_nxt_ + 1;
  AuditSequenceInvariants();
}

void TcpSocket::TestOnlyCorruptSackedRunsForAudit() {
  sacked_runs_.push_back(SeqRange{snd_nxt_, snd_nxt_ + 1});  // no segment backs it
  AuditSequenceInvariants();
}

const TcpInfoData& TcpSocket::SharedInfoPage() const {
  if (shared_page_version_ != info_version_) {
    shared_page_ = GetTcpInfo();
    shared_page_version_ = info_version_;
  }
  return shared_page_;
}

TcpInfoData TcpSocket::GetTcpInfo() const {
  TcpInfoData info;
  info.tcpi_bytes_acked = snd_una_;
  uint64_t pipe = snd_nxt_ - snd_una_;
  info.tcpi_unacked = static_cast<uint32_t>((pipe + kDefaultMss - 1) / kDefaultMss);
  info.tcpi_snd_mss = kDefaultMss;
  info.tcpi_snd_cwnd = static_cast<uint32_t>(std::max(cc_->CwndSegments(), 2.0));
  info.tcpi_snd_ssthresh = cc_->SsthreshSegments();
  info.tcpi_segs_out = segs_out_;
  info.tcpi_total_retrans = static_cast<uint32_t>(total_retrans_);
  info.tcpi_notsent_bytes = static_cast<uint32_t>(write_seq_ - snd_nxt_);
  info.tcpi_segs_in = segs_in_;
  info.tcpi_rcv_mss = kDefaultMss;
  info.tcpi_bytes_received = rcv_nxt_;
  info.tcpi_rtt_us = static_cast<uint32_t>(srtt_.ToMicros());
  info.tcpi_rttvar_us = static_cast<uint32_t>(rttvar_.ToMicros());
  info.tcpi_min_rtt_us =
      min_rtt_.IsInfinite() ? 0 : static_cast<uint32_t>(min_rtt_.ToMicros());
  info.tcpi_delivery_rate_bps = static_cast<uint64_t>(latest_rate_sample_.bps());
  std::optional<DataRate> pacing = cc_->PacingRate();
  info.tcpi_pacing_rate_bps = pacing.has_value() ? static_cast<uint64_t>(pacing->bps()) : 0;
  return info;
}

TcpSocketPair ConnectTcpPair(EventLoop* loop, Rng* rng, const TcpSocket::Config& config,
                             uint64_t flow_id, Attachment client, Attachment server,
                             bool client_sends) {
  auto client_socket =
      std::make_unique<TcpSocket>(loop, rng->Fork(), config, flow_id, client.tx, client.rx);
  auto server_socket =
      std::make_unique<TcpSocket>(loop, rng->Fork(), config, flow_id, server.tx, server.rx);
  TcpSocketPair pair;
  pair.sender = std::move(client_sends ? client_socket : server_socket);
  pair.receiver = std::move(client_sends ? server_socket : client_socket);
  pair.receiver->Listen();
  pair.sender->Connect();
  return pair;
}

}  // namespace element
