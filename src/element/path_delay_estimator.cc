#include "src/element/path_delay_estimator.h"

namespace element {

void PathDelayEstimator::OnTcpInfoSample(const TcpInfoData& info) {
  if (info.tcpi_rtt_us == 0) {
    return;
  }
  srtt_ = TimeDelta::FromMicros(info.tcpi_rtt_us);
  TimeDelta floor_candidate = info.tcpi_min_rtt_us > 0
                                  ? TimeDelta::FromMicros(info.tcpi_min_rtt_us)
                                  : srtt_;
  if (floor_candidate < base_rtt_) {
    base_rtt_ = floor_candidate;
  }
}

}  // namespace element
