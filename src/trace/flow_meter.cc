#include "src/trace/flow_meter.h"

namespace element {

FlowMeter::FlowMeter(EventLoop* loop, const TcpSocket* receiver, TimeDelta period)
    : loop_(loop),
      receiver_(receiver),
      timer_(loop, period, [this] { Sample(); }),
      last_sample_(loop->now()) {}

void FlowMeter::Sample() {
  uint64_t bytes = receiver_->app_bytes_read();
  TimeDelta elapsed = loop_->now() - last_sample_;
  if (elapsed > TimeDelta::Zero()) {
    DataRate rate = RateOver(static_cast<int64_t>(bytes - last_bytes_), elapsed);
    series_.Add(loop_->now(), rate.ToMbps());
  }
  last_bytes_ = bytes;
  last_sample_ = loop_->now();
}

DataRate FlowMeter::MeanGoodput() const {
  TimeDelta span = loop_->now() - SimTime::Zero();
  if (span <= TimeDelta::Zero()) {
    return DataRate::Zero();
  }
  return RateOver(static_cast<int64_t>(receiver_->app_bytes_read()), span);
}

}  // namespace element
