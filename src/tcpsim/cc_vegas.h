// TCP Vegas (Brakmo & Peterson 1995): delay-based congestion avoidance that
// keeps between alpha and beta packets queued in the network. Figure 15 uses
// it as the latency-friendly in-stack baseline.

#ifndef ELEMENT_SRC_TCPSIM_CC_VEGAS_H_
#define ELEMENT_SRC_TCPSIM_CC_VEGAS_H_

#include "src/tcpsim/congestion_control.h"

namespace element {

class VegasCc : public CongestionControl {
 public:
  VegasCc() = default;

  void OnConnectionStart(SimTime now, uint32_t mss) override;
  void OnAck(const AckSample& sample) override;
  void OnLoss(SimTime now, uint64_t bytes_in_flight, uint32_t mss) override;
  void OnRetransmissionTimeout(SimTime now) override;

  double CwndSegments() const override { return cwnd_; }
  uint32_t SsthreshSegments() const override {
    return static_cast<uint32_t>(ssthresh_ < 0x7FFFFFFF ? ssthresh_ : 0x7FFFFFFF);
  }

 private:
  static constexpr double kAlpha = 2.0;  // lower bound on queued packets
  static constexpr double kBeta = 4.0;   // upper bound on queued packets
  static constexpr double kGamma = 1.0;  // slow-start exit threshold

  uint32_t mss_ = 1448;
  double cwnd_ = 10.0;
  double ssthresh_ = 1e9;

  TimeDelta base_rtt_ = TimeDelta::Infinite();
  // Per-RTT epoch bookkeeping.
  SimTime epoch_end_;
  bool epoch_valid_ = false;
  TimeDelta epoch_min_rtt_ = TimeDelta::Infinite();
  int epoch_samples_ = 0;
  bool grow_this_epoch_ = false;  // Vegas slow start doubles every *other* RTT
};

}  // namespace element

#endif  // ELEMENT_SRC_TCPSIM_CC_VEGAS_H_
