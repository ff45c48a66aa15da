// Network-path delay decomposition from tcp_info alone: the third column of
// the paper's Table 1. ELEMENT reports the network delay as half the smoothed
// RTT; keeping a windowed minimum additionally splits it into a propagation
// estimate and the current queueing component.

#ifndef ELEMENT_SRC_ELEMENT_PATH_DELAY_ESTIMATOR_H_
#define ELEMENT_SRC_ELEMENT_PATH_DELAY_ESTIMATOR_H_

#include "src/common/time.h"
#include "src/tcpsim/tcp_info.h"

namespace element {

class PathDelayEstimator {
 public:
  PathDelayEstimator() = default;

  void OnTcpInfoSample(const TcpInfoData& info);

  TimeDelta smoothed_rtt() const { return srtt_; }
  // Propagation floor: the smallest RTT ever reported by the kernel.
  TimeDelta base_rtt() const { return base_rtt_; }  // lint_sim: allow(test-only) -- observer
  // Standing queueing along the path (both directions).
  TimeDelta queueing() const {  // lint_sim: allow(test-only) -- observer
    return srtt_ > base_rtt_ ? srtt_ - base_rtt_ : TimeDelta::Zero();
  }
  // The paper's "average network delay" estimate: half the smoothed RTT.
  TimeDelta one_way_network_delay() const { return srtt_ / 2; }

 private:
  TimeDelta srtt_ = TimeDelta::Zero();
  TimeDelta base_rtt_ = TimeDelta::Infinite();
};

}  // namespace element

#endif  // ELEMENT_SRC_ELEMENT_PATH_DELAY_ESTIMATOR_H_
