#include "src/netsim/red.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace element {

Red::Red(size_t limit_packets, Rng rng)
    : limit_packets_(limit_packets),
      min_threshold_packets_(static_cast<double>(limit_packets) * 0.2),
      max_threshold_packets_(static_cast<double>(limit_packets) * 0.6),
      rng_(std::move(rng)) {
  ELEMENT_CHECK(limit_packets > 0) << "RED needs a queue limit above 0";
}

double Red::CurrentDropProbability() const {
  constexpr double kMaxDropProbability = 0.1;  // max_p at max_threshold
  if (avg_queue_ < min_threshold_packets_) {
    return 0.0;
  }
  if (avg_queue_ >= max_threshold_packets_) {
    return 1.0;
  }
  double base = kMaxDropProbability * (avg_queue_ - min_threshold_packets_) /
                (max_threshold_packets_ - min_threshold_packets_);
  // Gentle uniformization: spread drops out over the inter-drop interval.
  double denom = 1.0 - static_cast<double>(std::max(count_since_drop_, 0)) * base;
  if (denom <= base) {
    return 1.0;
  }
  return base / denom;
}

bool Red::Enqueue(Packet pkt, SimTime now) {
  ScopedConservationAudit audit(this);
  // EWMA of the instantaneous queue; an idle period decays it toward zero
  // (approximation of the m-packet idle correction).
  constexpr double kQueueWeight = 0.002;
  if (idle_) {
    TimeDelta idle_time = now - idle_since_;
    double decay_steps = idle_time.ToSeconds() / 0.001;  // ~1 small pkt / ms
    avg_queue_ *= std::pow(1.0 - kQueueWeight, std::max(0.0, decay_steps));
    idle_ = false;
  }
  avg_queue_ = (1.0 - kQueueWeight) * avg_queue_ +
               kQueueWeight * static_cast<double>(queue_.size());

  if (queue_.size() >= limit_packets_) {
    CountDropPreQueue(pkt, now);
    count_since_drop_ = 0;
    return false;
  }
  double p = CurrentDropProbability();
  if (p > 0.0 && rng_.Bernoulli(p)) {
    if (!MarkInsteadOfDrop(pkt, now)) {
      CountDropPreQueue(pkt, now);
      count_since_drop_ = 0;
      return false;
    }
    count_since_drop_ = 0;
  } else if (count_since_drop_ >= 0) {
    ++count_since_drop_;
  }

  Admit(&queue_, std::move(pkt), now);
  return true;
}

std::optional<Packet> Red::Dequeue(SimTime now) {
  ScopedConservationAudit audit(this);
  if (queue_.empty()) {
    if (!idle_) {
      idle_ = true;
      idle_since_ = now;
    }
    return std::nullopt;
  }
  Packet pkt = PopHead(&queue_);
  if (queue_.empty()) {
    idle_ = true;
    idle_since_ = now;
  }
  CountDequeue(pkt, now);
  return pkt;
}

}  // namespace element
