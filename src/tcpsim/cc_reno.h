// TCP NewReno: AIMD baseline congestion control.

#ifndef ELEMENT_SRC_TCPSIM_CC_RENO_H_
#define ELEMENT_SRC_TCPSIM_CC_RENO_H_

#include "src/tcpsim/congestion_control.h"

namespace element {

class RenoCc : public CongestionControl {
 public:
  RenoCc() = default;

  void OnConnectionStart(SimTime now, uint32_t mss) override;
  void OnAck(const AckSample& sample) override;
  void OnLoss(SimTime now, uint64_t bytes_in_flight, uint32_t mss) override;
  void OnRetransmissionTimeout(SimTime now) override;
  void OnApplicationIdle(SimTime now, TimeDelta idle_time, TimeDelta rto) override;

  double CwndSegments() const override { return cwnd_; }
  uint32_t SsthreshSegments() const override { return ssthresh_; }

 private:
  uint32_t mss_ = 1448;
  double cwnd_ = 10.0;
  uint32_t ssthresh_ = 0x7FFFFFFF;
};

}  // namespace element

#endif  // ELEMENT_SRC_TCPSIM_CC_RENO_H_
