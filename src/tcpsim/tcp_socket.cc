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
  board_.StartDeliveryClock(loop_->now());
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
    if (board_.BytesInFlight() + kDefaultMss > window) {
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
    if (std::optional<SeqRange> lost = board_.TakeLost(loop_->now())) {
      ++total_retrans_;
      SendDataSegment(lost->begin, static_cast<uint32_t>(lost->end - lost->begin),
                      /*retransmit=*/true);
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
  if (telemetry_.recording()) {
    telemetry_.Emit(telemetry::TraceRecord::Range(
        telemetry::RecordKind::kTcpTransmit, flow_id_, loop_->now(), seq, seq + len,
        retransmit ? telemetry::kFlagRetransmit : 0));
  }
  // The CC sees a retransmission back in flight (TakeLost moved it), and new
  // data before it counts: snd_nxt_ moves past it after this call.
  cc_->OnPacketSent(loop_->now(), board_.BytesInFlight());
  if (!retransmit) {
    board_.Append(seq, len, loop_->now(), app_limited_now_);
  }

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
  cc_->OnLoss(loop_->now(), board_.BytesInFlight(), kDefaultMss);
}

void TcpSocket::OnAckSegment(const TcpSegmentPayload& seg) {
  peer_rwnd_ = seg.receive_window;
  if (seg.ece && config_.ecn) {
    ReactToEcnEcho();
  }

  // SACK blocks, the RTO re-arm on SACK progress, the cumulative pop, then
  // the loss scan: every timer draws its sequence number in this order.
  SendScoreboard::DeliverySample delivery;
  if (board_.ApplySack(seg.sacks, loop_->now(), &delivery) && snd_una_ < snd_nxt_) {
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
    board_.PopTo(ack, loop_->now(), &delivery);
    snd_una_ = ack;
  }

  // A retransmission is only re-declared lost once it has had a full RTT
  // (plus variance headroom) to land and be acknowledged; a tighter guard
  // produces spurious duplicate retransmissions.
  TimeDelta retx_grace = srtt_ + std::max(rttvar_ * 4.0, srtt_ * 0.5);
  if (board_.DetectLosses(loop_->now(), retx_grace) && !in_recovery_) {
    in_recovery_ = true;
    recovery_end_ = snd_nxt_;
    EmitCcEpisode(telemetry::CcEpisode::kRecovery);
    cc_->OnLoss(loop_->now(), board_.BytesInFlight(), kDefaultMss);
    MaybeAutotuneSndbuf();
  }

  if (acked > 0) {
    if (delivery.rtt > TimeDelta::Zero()) {
      UpdateRtt(delivery.rtt);
    }
    if (!delivery.rate.IsZero()) {
      latest_rate_sample_ = delivery.rate;
    }
    if (in_recovery_ && snd_una_ >= recovery_end_) {
      in_recovery_ = false;
      EmitCcEpisode(telemetry::CcEpisode::kOpen);
    }

    AckSample sample;
    sample.now = loop_->now();
    sample.acked_bytes = acked;
    sample.bytes_in_flight = board_.BytesInFlight();
    sample.rtt = delivery.rtt;
    sample.srtt = srtt_;
    sample.min_rtt = min_rtt_;
    sample.delivered_bytes = board_.delivered_bytes();
    sample.delivery_rate = delivery.rate;
    sample.app_limited = delivery.app_limited;
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
  board_.MarkAllLost();
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

  ELEMENT_AUDIT(board_.una() == snd_una_ && board_.nxt() == snd_nxt_)
      << "scoreboard covers [" << board_.una() << "," << board_.nxt() << "), not snd_una="
      << snd_una_ << " to snd_nxt=" << snd_nxt_ << " flow=" << flow_id_;

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
