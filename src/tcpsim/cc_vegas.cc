#include "src/tcpsim/cc_vegas.h"

#include <algorithm>

namespace element {

void VegasCc::OnAck(const AckSample& sample) {
  if (sample.in_recovery) {
    return;
  }
  if (sample.rtt > TimeDelta::Zero()) {
    base_rtt_ = std::min(base_rtt_, sample.rtt);
    epoch_min_rtt_ = std::min(epoch_min_rtt_, sample.rtt);
    ++epoch_samples_;
  }
  if (!epoch_valid_) {
    epoch_valid_ = true;
    epoch_end_ = sample.now + sample.srtt;
    return;
  }
  if (sample.now < epoch_end_ || epoch_samples_ < 1 || base_rtt_.IsInfinite()) {
    return;
  }

  // One Vegas adjustment per RTT using the epoch's minimum RTT sample.
  TimeDelta rtt = epoch_min_rtt_;
  double expected = cwnd_ / base_rtt_.ToSeconds();         // segments/s
  double actual = cwnd_ / rtt.ToSeconds();                  // segments/s
  double diff = (expected - actual) * base_rtt_.ToSeconds();  // queued segments

  if (cwnd_ < ssthresh_) {
    // Slow start: double every other RTT; leave when queue builds.
    if (diff > kGamma) {
      ssthresh_ = std::max(cwnd_ - 1.0, 2.0);
      cwnd_ = std::max(cwnd_ - diff + kAlpha, 2.0);
    } else if (grow_this_epoch_) {
      cwnd_ *= 2.0;
      grow_this_epoch_ = false;
    } else {
      grow_this_epoch_ = true;
    }
  } else {
    if (diff < kAlpha) {
      cwnd_ += 1.0;
    } else if (diff > kBeta) {
      cwnd_ = std::max(cwnd_ - 1.0, 2.0);
    }
  }

  epoch_end_ = sample.now + sample.srtt;
  epoch_min_rtt_ = TimeDelta::Infinite();
  epoch_samples_ = 0;
}

void VegasCc::OnLoss(SimTime /*now*/, uint64_t /*bytes_in_flight*/, uint32_t /*mss*/) {
  ssthresh_ = std::max(cwnd_ * 0.75, 2.0);
  cwnd_ = ssthresh_;
}

void VegasCc::OnRetransmissionTimeout(SimTime /*now*/) {
  ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  cwnd_ = 2.0;
}

}  // namespace element
