#include "src/element/delay_event_monitor.h"

#include <cmath>

namespace element {

void DelayEventMonitor::OnRecord(const telemetry::TraceRecord& record) {
  double d = receiver_side_ ? record.u.delay.receiver_s : record.u.delay.sender_s;
  if (!have_ewma_) {
    ewma_s_ = d;
    have_ewma_ = true;
  }
  double jitter_s = std::abs(d - ewma_s_);
  ewma_s_ = (1.0 - thresholds_.ewma_weight) * ewma_s_ + thresholds_.ewma_weight * d;

  auto fire = [&](Event::Kind kind) {
    if (cb_) {
      Event ev;
      ev.kind = kind;
      ev.at = record.t;
      ev.delay = TimeDelta::FromSeconds(d);
      ev.jitter = TimeDelta::FromSeconds(jitter_s);
      cb_(ev);
    }
  };

  // Delay threshold with hysteresis.
  if (!thresholds_.delay_threshold.IsInfinite()) {
    double thr = thresholds_.delay_threshold.ToSeconds();
    if (delay_armed_ && d > thr) {
      delay_armed_ = false;
      ++delay_events_;
      fire(Event::Kind::kDelayExceeded);
    } else if (!delay_armed_ && d < thr * thresholds_.rearm_fraction) {
      delay_armed_ = true;
      ++delay_recoveries_;
      fire(Event::Kind::kDelayRecovered);
    }
  }

  // Jitter threshold with hysteresis.
  if (!thresholds_.jitter_threshold.IsInfinite()) {
    double thr = thresholds_.jitter_threshold.ToSeconds();
    if (jitter_armed_ && jitter_s > thr) {
      jitter_armed_ = false;
      ++jitter_events_;
      fire(Event::Kind::kJitterExceeded);
    } else if (!jitter_armed_ && jitter_s < thr * thresholds_.rearm_fraction) {
      jitter_armed_ = true;
    }
  }
}

}  // namespace element
