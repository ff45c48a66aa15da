// Pluggable application-layer rate control. The paper ships Algorithm 3 as
// ELEMENT's *default* latency-minimization algorithm but explicitly lets
// applications "override it with their own rate control algorithm" (§4.4,
// §7). This interface is that extension point; LatencyMinimizer is the
// default implementation, FixedRateController a minimal alternative.

#ifndef ELEMENT_SRC_ELEMENT_RATE_CONTROLLER_H_
#define ELEMENT_SRC_ELEMENT_RATE_CONTROLLER_H_

#include <algorithm>
#include <string>

#include "src/common/data_rate.h"
#include "src/common/time.h"
#include "src/evloop/event_loop.h"

namespace element {

class RateController {
 public:
  virtual ~RateController() = default;

  virtual void Start() {}
  virtual void Stop() {}

  // Fed with each new socket-buffer delay measurement in seconds (Algorithm
  // 1's output, as the sender estimator's kDelaySample records carry it).
  virtual void OnDelayMeasurement(double measured_s) = 0;
  // May the application push more data right now?
  virtual bool MaySendNow() const = 0;
  // When gated: how long until the next attempt (may escalate internally).
  virtual TimeDelta NextRetryDelay() = 0;
  // An admitted send happened; `bytes` were accepted by the socket.
  virtual void OnSendAllowed() {}
  virtual void OnBytesAdmitted(size_t bytes, SimTime now) {
    (void)bytes;
    (void)now;
  }
  virtual std::string name() const = 0;
};

// Token-bucket pacer: admits application data at a fixed rate regardless of
// measured delay. Useful as a baseline against Algorithm 3 and as the
// simplest example of a custom controller.
class FixedRateController : public RateController {
 public:
  FixedRateController(EventLoop* loop, DataRate rate, size_t burst_bytes = 16 * 1024)
      : loop_(loop), rate_(rate), burst_(static_cast<double>(burst_bytes)),
        tokens_(static_cast<double>(burst_bytes)), last_refill_(loop->now()) {}

  void OnDelayMeasurement(double /*measured_s*/) override {}

  bool MaySendNow() const override {
    Refill();
    return tokens_ >= 1.0;
  }

  TimeDelta NextRetryDelay() override {
    Refill();
    if (tokens_ >= 1.0) {
      return TimeDelta::Zero();
    }
    double deficit_bytes = 1.0 - tokens_;
    return rate_.TransmitTime(static_cast<int64_t>(deficit_bytes) + 1);
  }

  void OnBytesAdmitted(size_t bytes, SimTime /*now*/) override {
    Refill();
    tokens_ -= static_cast<double>(bytes);
  }

  std::string name() const override { return "fixed_rate"; }
  DataRate rate() const { return rate_; }

 private:
  void Refill() const {
    SimTime now = loop_->now();
    TimeDelta elapsed = now - last_refill_;
    if (elapsed > TimeDelta::Zero()) {
      tokens_ = std::min(burst_, tokens_ + rate_.BytesPerSec() * elapsed.ToSeconds());
      last_refill_ = now;
    }
  }

  EventLoop* loop_;
  DataRate rate_;
  double burst_;
  mutable double tokens_;
  mutable SimTime last_refill_;
};

}  // namespace element

#endif  // ELEMENT_SRC_ELEMENT_RATE_CONTROLLER_H_
