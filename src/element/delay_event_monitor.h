// Event-driven delay/jitter notification — the select()-like interface the
// paper's Discussion (§7, "ELEMENT applications") proposes for
// jitter-sensitive applications: instead of polling RetInfo, the application
// registers thresholds and reacts the moment a delay or jitter excursion
// happens.

#ifndef ELEMENT_SRC_ELEMENT_DELAY_EVENT_MONITOR_H_
#define ELEMENT_SRC_ELEMENT_DELAY_EVENT_MONITOR_H_

#include <functional>
#include <string>

#include "src/common/time.h"
#include "src/element/delay_estimator.h"
#include "src/telemetry/metric_registry.h"
#include "src/telemetry/record.h"

namespace element {

// A per-flow sink on one delay estimator's telemetry: it reads the
// estimator's component of each kDelaySample estimate record.
class DelayEventMonitor : public telemetry::RecordSink {
 public:
  struct Thresholds {
    // Fire when the estimated buffer delay exceeds this value.
    TimeDelta delay_threshold = TimeDelta::Infinite();
    // Fire when |delay - EWMA(delay)| exceeds this value (jitter excursion).
    TimeDelta jitter_threshold = TimeDelta::Infinite();
    // Re-arm hysteresis: no repeated events until the value falls below
    // `rearm_fraction` x threshold.
    double rearm_fraction = 0.8;
    double ewma_weight = 1.0 / 8.0;
  };

  struct Event {
    enum class Kind { kDelayExceeded, kJitterExceeded, kDelayRecovered };
    Kind kind;
    SimTime at;
    TimeDelta delay;
    TimeDelta jitter;
  };
  using Callback = std::function<void(const Event&)>;

  DelayEventMonitor(const Thresholds& thresholds, Callback cb)
      : thresholds_(thresholds), cb_(std::move(cb)) {}

  // Adds the monitor to the estimator's per-flow sinks, beside any other
  // consumer (e.g. ElementSocket's Algorithm 3). The monitor must outlive
  // the estimator's run; attach it to one estimator only.
  void Attach(SenderDelayEstimator* est) {
    receiver_side_ = false;
    est->telemetry().AttachSink(this);
  }
  void Attach(ReceiverDelayEstimator* est) {
    receiver_side_ = true;
    est->telemetry().AttachSink(this);
  }

  // Consumes one estimate record; Attach() routes the estimator's records here.
  void OnRecord(const telemetry::TraceRecord& record) override;

  uint64_t delay_events() const { return delay_events_; }
  uint64_t jitter_events() const { return jitter_events_; }
  uint64_t delay_recoveries() const { return delay_recoveries_; }
  TimeDelta ewma_delay() const { return TimeDelta::FromSeconds(ewma_s_); }

  // Mirrors the event counters into `registry` under `prefix` (end-of-run
  // publication, like the qdisc/router counters).
  void PublishMetrics(telemetry::MetricRegistry* registry, const std::string& prefix) const {
    *registry->Counter(prefix + "delay_events") += delay_events_;
    *registry->Counter(prefix + "jitter_events") += jitter_events_;
    *registry->Counter(prefix + "delay_recoveries") += delay_recoveries_;
  }

 private:
  Thresholds thresholds_;
  Callback cb_;
  bool receiver_side_ = false;  // which component of the records to read
  double ewma_s_ = 0.0;
  bool have_ewma_ = false;
  bool delay_armed_ = true;
  bool jitter_armed_ = true;
  uint64_t delay_events_ = 0;
  uint64_t jitter_events_ = 0;
  uint64_t delay_recoveries_ = 0;
};

}  // namespace element

#endif  // ELEMENT_SRC_ELEMENT_DELAY_EVENT_MONITOR_H_
