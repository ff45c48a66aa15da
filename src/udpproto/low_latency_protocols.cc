#include "src/udpproto/low_latency_protocols.h"

#include <algorithm>
#include <cmath>

namespace element {
namespace {

// SproutLike: the receiver forecasts the arrival rate every tick.
constexpr TimeDelta kSproutTick = TimeDelta::FromMillis(20);
constexpr TimeDelta kSproutForecastHorizon = TimeDelta::FromMillis(100);
constexpr double kSproutCautionStddevs = 1.3;  // ~10th percentile of the rate forecast
constexpr uint32_t kSproutDatagramBytes = 1400;
// Delay-bounded probing: overshoot the forecast while queueing stays below
// the target (Sprout's "fill the link, keep delay < 100 ms").
constexpr double kSproutProbeGain = 1.25;
constexpr double kSproutBackoffGain = 0.7;
constexpr TimeDelta kSproutQueueingTarget = TimeDelta::FromMillis(60);

// VerusLike: the sender moves its window once per epoch.
constexpr TimeDelta kVerusEpoch = TimeDelta::FromMillis(5);
constexpr TimeDelta kVerusDelayTargetLow = TimeDelta::FromMillis(15);
constexpr TimeDelta kVerusDelayTargetHigh = TimeDelta::FromMillis(45);
constexpr double kVerusDecreaseFactor = 0.87;
constexpr double kVerusIncreaseBytes = 2800.0;  // additive, per epoch
constexpr uint32_t kVerusDatagramBytes = 1400;
constexpr double kVerusMaxWindowBytes = 2e6;

}  // namespace

// ---------------------------------------------------------------------------
// SproutLike
// ---------------------------------------------------------------------------

SproutLikeFlow::SproutLikeFlow(EventLoop* loop, DuplexPath* path)
    : loop_(loop),
      send_timer_(loop, kSproutTick, [this] { SenderTick(); }),
      recv_timer_(loop, kSproutTick, [this] { ReceiverTick(); }) {
  uint64_t flow_id = path->AllocateFlowId();
  sender_ = std::make_unique<UdpSocket>(loop, flow_id, &path->forward(), &path->client_demux());
  receiver_ =
      std::make_unique<UdpSocket>(loop, flow_id, &path->reverse(), &path->server_demux());
  sender_->SetReceiveCallback(
      [this](const UdpDatagramPayload& p, const Packet& pkt) { OnSenderReceive(p, pkt); });
  receiver_->SetReceiveCallback(
      [this](const UdpDatagramPayload& p, const Packet& pkt) { OnReceiverReceive(p, pkt); });
}

void SproutLikeFlow::Start() {
  send_timer_.Start();
  recv_timer_.Start();
}

void SproutLikeFlow::Stop() {
  send_timer_.Stop();
  recv_timer_.Stop();
}

void SproutLikeFlow::SenderTick() {
  // Spend this tick's share of the forecast allowance.
  double per_tick = allowance_bytes_ * (kSproutTick.ToSeconds() /
                                        kSproutForecastHorizon.ToSeconds());
  int64_t budget = static_cast<int64_t>(per_tick);
  while (budget > 0) {
    UdpDatagramPayload dg;
    dg.seq = ++next_seq_;
    dg.payload_bytes = kSproutDatagramBytes;
    sender_->SendDatagram(dg);
    budget -= kSproutDatagramBytes;
  }
}

void SproutLikeFlow::OnSenderReceive(const UdpDatagramPayload& payload, const Packet&) {
  if (payload.is_feedback) {
    allowance_bytes_ = payload.metric_a;
  }
}

void SproutLikeFlow::OnReceiverReceive(const UdpDatagramPayload& payload, const Packet&) {
  if (payload.is_feedback) {
    return;
  }
  TimeDelta owd = loop_->now() - payload.sent;
  delays_.Add(owd.ToSeconds());
  min_owd_ = std::min(min_owd_, owd);
  tick_max_owd_ = std::max(tick_max_owd_, owd);
  delivered_bytes_ += payload.payload_bytes;
  tick_bytes_ += payload.payload_bytes;
}

void SproutLikeFlow::ReceiverTick() {
  double inst_rate = static_cast<double>(tick_bytes_) / kSproutTick.ToSeconds();
  tick_bytes_ = 0;
  if (!have_rate_) {
    rate_mean_ = inst_rate;
    rate_var_ = inst_rate * inst_rate * 0.25;
    have_rate_ = true;
  } else {
    double d = inst_rate - rate_mean_;
    rate_mean_ += 0.125 * d;
    rate_var_ = 0.875 * rate_var_ + 0.125 * d * d;
  }
  // Conservative stochastic forecast: the cautious percentile of the rate,
  // probed upward while queueing stays below target and cut when it exceeds.
  double safe_rate = std::max(0.0, rate_mean_ - kSproutCautionStddevs * std::sqrt(rate_var_));
  TimeDelta queueing =
      min_owd_.IsInfinite() ? TimeDelta::Zero() : tick_max_owd_ - min_owd_;
  double gain = queueing > kSproutQueueingTarget ? kSproutBackoffGain : kSproutProbeGain;
  tick_max_owd_ = TimeDelta::Zero();
  UdpDatagramPayload fb;
  fb.is_feedback = true;
  fb.payload_bytes = 40;
  fb.metric_a = safe_rate * gain * kSproutForecastHorizon.ToSeconds() +
                static_cast<double>(kSproutDatagramBytes);  // never fully starve
  fb.metric_b = rate_mean_;
  receiver_->SendDatagram(fb);
}

// ---------------------------------------------------------------------------
// VerusLike
// ---------------------------------------------------------------------------

VerusLikeFlow::VerusLikeFlow(EventLoop* loop, DuplexPath* path)
    : loop_(loop), epoch_timer_(loop, kVerusEpoch, [this] { EpochTick(); }) {
  uint64_t flow_id = path->AllocateFlowId();
  sender_ = std::make_unique<UdpSocket>(loop, flow_id, &path->forward(), &path->client_demux());
  receiver_ =
      std::make_unique<UdpSocket>(loop, flow_id, &path->reverse(), &path->server_demux());
  sender_->SetReceiveCallback(
      [this](const UdpDatagramPayload& p, const Packet& pkt) { OnSenderReceive(p, pkt); });
  receiver_->SetReceiveCallback(
      [this](const UdpDatagramPayload& p, const Packet& pkt) { OnReceiverReceive(p, pkt); });
}

void VerusLikeFlow::Start() {
  epoch_timer_.Start();
  TrySend();
}

void VerusLikeFlow::Stop() { epoch_timer_.Stop(); }

void VerusLikeFlow::TrySend() {
  uint64_t last_sent = next_seq_;
  uint64_t unacked =
      (last_sent > highest_acked_ ? last_sent - highest_acked_ : 0) * kVerusDatagramBytes;
  while (unacked + kVerusDatagramBytes <= static_cast<uint64_t>(window_bytes_)) {
    UdpDatagramPayload dg;
    dg.seq = ++next_seq_;
    dg.payload_bytes = kVerusDatagramBytes;
    sender_->SendDatagram(dg);
    unacked += kVerusDatagramBytes;
  }
}

void VerusLikeFlow::OnSenderReceive(const UdpDatagramPayload& payload, const Packet&) {
  if (!payload.is_feedback) {
    return;
  }
  highest_acked_ = std::max(highest_acked_, payload.ack_seq);
  latest_owd_ = TimeDelta::FromSeconds(payload.metric_b);
  min_owd_ = std::min(min_owd_, latest_owd_);
  TrySend();
}

void VerusLikeFlow::OnReceiverReceive(const UdpDatagramPayload& payload, const Packet&) {
  if (payload.is_feedback) {
    return;
  }
  TimeDelta owd = loop_->now() - payload.sent;
  delays_.Add(owd.ToSeconds());
  delivered_bytes_ += payload.payload_bytes;
  UdpDatagramPayload fb;
  fb.is_feedback = true;
  fb.payload_bytes = 40;
  fb.ack_seq = payload.seq;
  fb.metric_b = owd.ToSeconds();
  receiver_->SendDatagram(fb);
}

void VerusLikeFlow::EpochTick() {
  if (min_owd_.IsInfinite()) {
    TrySend();
    return;
  }
  TimeDelta queueing = latest_owd_ - min_owd_;
  if (queueing < kVerusDelayTargetLow) {
    window_bytes_ += kVerusIncreaseBytes;
  } else if (queueing > kVerusDelayTargetHigh) {
    window_bytes_ *= kVerusDecreaseFactor;
  }
  window_bytes_ = std::clamp(window_bytes_, static_cast<double>(kVerusDatagramBytes),
                             kVerusMaxWindowBytes);
  TrySend();
}

}  // namespace element
