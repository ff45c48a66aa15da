#include "src/element/latency_minimizer.h"

#include <algorithm>
#include <cmath>

namespace element {

LatencyMinimizer::LatencyMinimizer(EventLoop* loop, TcpSocket* socket,
                                   const MinimizerParams& params, bool is_wireless)
    : loop_(loop),
      socket_(socket),
      params_(params),
      is_wireless_(is_wireless),
      check_timer_(loop, TimeDelta::FromMillis(5), [this] { CheckAndAdjust(); }),
      last_adjust_(loop->now()) {}

void LatencyMinimizer::OnDelayMeasurement(double measured_s) {
  constexpr double kEwmaWeight = 1.0 / 8.0;  // D_avg <- 7/8 D_avg + 1/8 D_measured
  if (!have_delay_) {
    avg_delay_s_ = measured_s;
    have_delay_ = true;
  } else {
    avg_delay_s_ = (1.0 - kEwmaWeight) * avg_delay_s_ + kEwmaWeight * measured_s;
  }
}

void LatencyMinimizer::CheckAndAdjust() {
  // Algorithm 3's checking thread runs its adjustment once per smoothed RTT.
  TimeDelta srtt = socket_->smoothed_rtt();
  if (srtt.IsZero()) {
    srtt = TimeDelta::FromMillis(100);
  }
  if (loop_->now() - last_adjust_ <= srtt) {
    return;
  }
  last_adjust_ = loop_->now();
  if (!have_delay_ || avg_delay_s_ <= 0.0) {
    return;
  }

  if (starget_ <= 0.0) {
    starget_ = static_cast<double>(socket_->sndbuf());
  }
  double ratio = std::pow(avg_delay_s_ / params_.delay_threshold.ToSeconds(), params_.delta);
  if (ratio > 0.0) {
    starget_ /= ratio;
  }
  const TcpInfoData& info = socket_->SharedInfoPage();
  double cap = kBeta * static_cast<double>(info.tcpi_snd_cwnd) * info.tcpi_snd_mss;
  starget_ = std::min(starget_, cap);
  starget_ = std::max(starget_, static_cast<double>(info.tcpi_snd_mss));

  if (is_wireless_) {
    // On LTE/WiFi the paper additionally pins the kernel buffer near S_target.
    socket_->SetSndBuf(static_cast<size_t>(starget_ * kGamma));
  }
}

bool LatencyMinimizer::MaySendNow() const {
  if (sleep_count_ > kMaxSleeps) {
    return true;  // sleep budget exhausted; let the write through
  }
  if (starget_ <= 0.0) {
    return true;  // not initialized yet; no gating
  }
  uint64_t seq = socket_->app_bytes_written();
  uint64_t best = SenderDelayEstimator::EstimateSentBytes(socket_->SharedInfoPage());
  uint64_t unsent = seq > best ? seq - best : 0;
  return unsent <= starget_bytes();
}

TimeDelta LatencyMinimizer::NextRetryDelay() {
  constexpr double kLambda = 1.5;  // sleep time = cnt^lambda milliseconds
  ++sleep_count_;
  double ms = std::pow(static_cast<double>(sleep_count_), kLambda);
  return TimeDelta::FromSeconds(ms / 1000.0);
}

}  // namespace element
