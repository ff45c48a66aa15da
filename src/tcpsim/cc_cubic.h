// CUBIC congestion control (Ha, Rhee, Xu 2008 / RFC 8312) — the Linux default
// and the paper's primary subject. Window growth follows a cubic function of
// time since the last loss, with a TCP-friendliness lower bound and fast
// convergence.

#ifndef ELEMENT_SRC_TCPSIM_CC_CUBIC_H_
#define ELEMENT_SRC_TCPSIM_CC_CUBIC_H_

#include "src/tcpsim/congestion_control.h"

namespace element {

class CubicCc : public CongestionControl {
 public:
  CubicCc() = default;
  // hystart=false reverts to blind slow start (ablation: quantifies what the
  // delay-increase exit is worth).
  explicit CubicCc(bool hystart) : hystart_enabled_(hystart) {}

  void OnConnectionStart(SimTime now, uint32_t mss) override;
  void OnAck(const AckSample& sample) override;
  void OnLoss(SimTime now, uint64_t bytes_in_flight, uint32_t mss) override;
  void OnRetransmissionTimeout(SimTime now) override;
  void OnApplicationIdle(SimTime now, TimeDelta idle_time, TimeDelta rto) override;

  double CwndSegments() const override { return cwnd_; }
  uint32_t SsthreshSegments() const override {
    return static_cast<uint32_t>(ssthresh_ < 0x7FFFFFFF ? ssthresh_ : 0x7FFFFFFF);
  }

  double w_max() const { return w_max_; }  // lint_sim: allow(test-only) -- observer

 private:
  void ResetEpoch();

  static constexpr double kBeta = 0.7;   // multiplicative decrease
  static constexpr double kC = 0.4;      // cubic scaling constant
  static constexpr bool kFastConvergence = true;

  uint32_t mss_ = 1448;
  double cwnd_ = 10.0;
  double ssthresh_ = 1e9;

  // Cubic epoch state.
  bool epoch_started_ = false;
  SimTime epoch_start_;
  double w_max_ = 0.0;
  double k_ = 0.0;            // time (s) to return to w_max
  double origin_point_ = 0.0;
  double w_est_acked_segments_ = 0.0;  // for the TCP-friendly estimate

  // HyStart (delay-increase detection, as in Linux Cubic): leaves slow start
  // before the queue-overflow burst when the per-round min RTT rises.
  void HyStartUpdate(const AckSample& sample);
  bool hystart_enabled_ = true;
  bool round_active_ = false;
  SimTime round_start_;
  TimeDelta last_round_min_rtt_ = TimeDelta::Infinite();
  TimeDelta curr_round_min_rtt_ = TimeDelta::Infinite();
};

}  // namespace element

#endif  // ELEMENT_SRC_TCPSIM_CC_CUBIC_H_
