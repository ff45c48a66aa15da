// LEDBAT (RFC 6817): Low Extra Delay Background Transport — a one-way-delay-
// based scavenger congestion control that targets a fixed queueing delay and
// yields to any other traffic. Included as an additional latency-oriented
// baseline alongside Vegas/BBR in the Figure 15 extension rows: like them, it
// controls *network* queueing but cannot see the endhost socket buffer that
// ELEMENT targets.

#ifndef ELEMENT_SRC_TCPSIM_CC_LEDBAT_H_
#define ELEMENT_SRC_TCPSIM_CC_LEDBAT_H_

#include <deque>

#include "src/tcpsim/congestion_control.h"

namespace element {

class LedbatCc : public CongestionControl {
 public:
  LedbatCc() = default;

  void OnConnectionStart(SimTime now, uint32_t mss) override;
  void OnAck(const AckSample& sample) override;
  void OnLoss(SimTime now, uint64_t bytes_in_flight, uint32_t mss) override;
  void OnRetransmissionTimeout(SimTime now) override;

  double CwndSegments() const override { return cwnd_; }
  uint32_t SsthreshSegments() const override {
    return static_cast<uint32_t>(ssthresh_ < 0x7FFFFFFF ? ssthresh_ : 0x7FFFFFFF);
  }

  TimeDelta base_delay() const;

 private:
  static constexpr double kTargetDelayS = 0.060;  // RFC 6817 TARGET (<= 100 ms)
  static constexpr double kGain = 1.0;            // window gain per target
  static constexpr int kBaseHistoryMinutes = 10;  // base-delay history windows

  void UpdateBaseDelay(TimeDelta rtt, SimTime now);

  uint32_t mss_ = 1448;
  double cwnd_ = 4.0;
  double ssthresh_ = 1e9;

  // Per-minute minima of the observed delay (RFC 6817 BASE_HISTORY).
  std::deque<TimeDelta> base_history_;
  SimTime current_minute_start_;
  bool minute_started_ = false;
};

}  // namespace element

#endif  // ELEMENT_SRC_TCPSIM_CC_LEDBAT_H_
