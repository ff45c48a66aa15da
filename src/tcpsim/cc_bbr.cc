#include "src/tcpsim/cc_bbr.h"

#include <algorithm>
#include <cmath>

namespace element {

void WindowedMaxFilter::Update(double value, uint64_t round) {
  while (!samples_.empty() && samples_.back().value <= value) {
    samples_.pop_back();
  }
  samples_.push_back({value, round});
  while (!samples_.empty() && round >= window_ &&
         samples_.front().round <= round - window_) {
    samples_.pop_front();
  }
}

double WindowedMaxFilter::GetMax() const {
  return samples_.empty() ? 0.0 : samples_.front().value;
}

void BbrCc::OnConnectionStart(SimTime now, uint32_t mss) {
  mss_ = mss;
  min_rtt_stamp_ = now;
  cycle_stamp_ = now;
}

double BbrCc::BdpBytes(double gain) const {
  double bw = btl_bw_filter_.GetMax();  // bytes/sec
  if (bw <= 0.0 || min_rtt_.IsInfinite()) {
    return gain * 10.0 * mss_;  // initial window until the model forms
  }
  return gain * bw * min_rtt_.ToSeconds();
}

double BbrCc::CwndSegments() const {
  if (mode_ == Mode::kProbeRtt) {
    return 4.0;
  }
  double cwnd_bytes = BdpBytes(cwnd_gain_);
  return std::max(cwnd_bytes / mss_, 4.0);
}

std::optional<DataRate> BbrCc::PacingRate() const {
  double bw = btl_bw_filter_.GetMax();
  if (bw <= 0.0) {
    return std::nullopt;  // no model yet; window-limited slow start
  }
  return DataRate::BytesPerSecond(bw * pacing_gain_);
}

void BbrCc::UpdateRound(const AckSample& sample) {
  if (sample.delivered_bytes >= next_round_delivered_) {
    next_round_delivered_ = sample.delivered_bytes + sample.bytes_in_flight;
    ++round_count_;
  }
}

void BbrCc::CheckFullPipe(const AckSample& sample) {
  if (filled_pipe_ || sample.app_limited) {
    return;
  }
  double bw = btl_bw_filter_.GetMax();
  if (bw >= full_bw_ * 1.25) {
    full_bw_ = bw;
    full_bw_count_ = 0;
    return;
  }
  ++full_bw_count_;
  if (full_bw_count_ >= 3) {
    filled_pipe_ = true;
  }
}

void BbrCc::AdvanceCyclePhase(const AckSample& sample) {
  static constexpr double kGains[kGainCycleLen] = {1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  TimeDelta phase_len = min_rtt_.IsInfinite() ? TimeDelta::FromMillis(200) : min_rtt_;
  if (sample.now - cycle_stamp_ > phase_len) {
    cycle_index_ = (cycle_index_ + 1) % kGainCycleLen;
    cycle_stamp_ = sample.now;
    pacing_gain_ = kGains[cycle_index_];
  }
}

void BbrCc::MaybeEnterOrExitProbeRtt(const AckSample& sample, bool min_rtt_expired) {
  if (mode_ != Mode::kProbeRtt && min_rtt_expired) {
    mode_ = Mode::kProbeRtt;
    pacing_gain_ = 1.0;
    probe_rtt_done_ = sample.now + TimeDelta::FromMillis(200);
    min_rtt_stamp_ = sample.now;  // restart the window
  } else if (mode_ == Mode::kProbeRtt && sample.now >= probe_rtt_done_) {
    mode_ = filled_pipe_ ? Mode::kProbeBw : Mode::kStartup;
    pacing_gain_ = mode_ == Mode::kProbeBw ? 1.0 : kHighGain;
    cwnd_gain_ = mode_ == Mode::kProbeBw ? kCwndGain : kHighGain;
    cycle_stamp_ = sample.now;
  }
}

void BbrCc::OnAck(const AckSample& sample) {
  // Expiry is computed before the filter refresh so ProbeRTT still triggers
  // (the refresh below would otherwise hide the expiration).
  bool min_rtt_expired = sample.now - min_rtt_stamp_ > TimeDelta::FromSecondsInt(10);
  if (sample.rtt > TimeDelta::Zero()) {
    if (sample.rtt <= min_rtt_ || min_rtt_expired) {
      min_rtt_ = sample.rtt;
      min_rtt_stamp_ = sample.now;
    }
  }
  UpdateRound(sample);
  if (!sample.delivery_rate.IsZero() && (!sample.app_limited ||
      sample.delivery_rate.BytesPerSec() > btl_bw_filter_.GetMax())) {
    btl_bw_filter_.Update(sample.delivery_rate.BytesPerSec(), round_count_);
  }

  switch (mode_) {
    case Mode::kStartup:
      CheckFullPipe(sample);
      if (filled_pipe_) {
        mode_ = Mode::kDrain;
        pacing_gain_ = kDrainGain;
        cwnd_gain_ = kCwndGain;
      }
      break;
    case Mode::kDrain:
      if (static_cast<double>(sample.bytes_in_flight) <= BdpBytes(1.0)) {
        mode_ = Mode::kProbeBw;
        pacing_gain_ = 1.0;
        cwnd_gain_ = kCwndGain;
        cycle_index_ = 2;  // skip the initial 1.25 surge
        cycle_stamp_ = sample.now;
      }
      break;
    case Mode::kProbeBw:
      AdvanceCyclePhase(sample);
      break;
    case Mode::kProbeRtt:
      break;
  }
  MaybeEnterOrExitProbeRtt(sample, min_rtt_expired);
}

void BbrCc::OnLoss(SimTime /*now*/, uint64_t /*bytes_in_flight*/, uint32_t /*mss*/) {
  // BBRv1 does not react to individual losses; the model absorbs them.
}

void BbrCc::OnRetransmissionTimeout(SimTime /*now*/) {
  // Conservative restart: flush the bandwidth model's recent optimism.
  full_bw_ = 0.0;
  full_bw_count_ = 0;
}

const char* BbrCc::mode_name() const {
  switch (mode_) {
    case Mode::kStartup:
      return "startup";
    case Mode::kDrain:
      return "drain";
    case Mode::kProbeBw:
      return "probe_bw";
    case Mode::kProbeRtt:
      return "probe_rtt";
  }
  return "?";
}

}  // namespace element
