#include "src/netsim/pie.h"

#include <algorithm>
#include <utility>

namespace element {
namespace {

constexpr TimeDelta kTarget = TimeDelta::FromMillis(15);
constexpr TimeDelta kUpdateInterval = TimeDelta::FromMillis(15);
constexpr TimeDelta kBurstAllowance = TimeDelta::FromMillis(150);
constexpr double kAlpha = 0.125;  // 1/s of delay error
constexpr double kBeta = 1.25;

}  // namespace

Pie::Pie(Rng rng, size_t limit_packets)
    : limit_packets_(limit_packets), rng_(std::move(rng)), burst_left_(kBurstAllowance) {}

TimeDelta Pie::EstimateQueueDelay() const {
  if (avg_drain_rate_bytes_per_sec_ <= 1.0) {
    return TimeDelta::Zero();
  }
  return TimeDelta::FromSeconds(static_cast<double>(queue_.bytes) / avg_drain_rate_bytes_per_sec_);
}

void Pie::MaybeUpdateProbability(SimTime now) {
  if (first_update_done_ && now - last_update_ < kUpdateInterval) {
    return;
  }
  TimeDelta qdelay = EstimateQueueDelay();
  double p = kAlpha * (qdelay - kTarget).ToSeconds() +
             kBeta * (qdelay - qdelay_old_).ToSeconds();

  // RFC 8033 §5.1 auto-tuning: scale the adjustment by the operating region.
  if (drop_prob_ < 0.000001) {
    p /= 2048.0;
  } else if (drop_prob_ < 0.00001) {
    p /= 512.0;
  } else if (drop_prob_ < 0.0001) {
    p /= 128.0;
  } else if (drop_prob_ < 0.001) {
    p /= 32.0;
  } else if (drop_prob_ < 0.01) {
    p /= 8.0;
  } else if (drop_prob_ < 0.1) {
    p /= 2.0;
  }
  drop_prob_ += p;

  // Exponential decay when the queue is idle.
  if (qdelay.IsZero() && qdelay_old_.IsZero()) {
    drop_prob_ *= 0.98;
  }
  drop_prob_ = std::clamp(drop_prob_, 0.0, 1.0);
  qdelay_old_ = qdelay;

  // RFC 8033 §4.2: the burst allowance drains on every update; it is only
  // replenished while the queue is demonstrably uncongested.
  if (burst_left_ > TimeDelta::Zero()) {
    burst_left_ -= kUpdateInterval;
  } else if (drop_prob_ == 0.0 && qdelay < kTarget * 0.5 &&
             qdelay_old_ < kTarget * 0.5) {
    burst_left_ = kBurstAllowance;
  }
  last_update_ = now;
  first_update_done_ = true;
}

bool Pie::Enqueue(Packet&& pkt, SimTime now) {
  ScopedConservationAudit audit(this);
  MaybeUpdateProbability(now);
  if (queue_.size() >= limit_packets_) {
    CountDropPreQueue(pkt, now);
    return false;
  }
  bool should_drop = false;
  if (burst_left_ <= TimeDelta::Zero()) {
    // RFC 8033 §5.3 safeguards against starving small queues.
    bool tiny_queue = queue_.size() < 2;
    bool low_delay = qdelay_old_ < kTarget * 0.5 && drop_prob_ < 0.2;
    if (!tiny_queue && !low_delay && rng_.Bernoulli(drop_prob_)) {
      should_drop = true;
    }
  }
  if (should_drop) {
    if (!MarkInsteadOfDrop(pkt, now)) {
      CountDropPreQueue(pkt, now);
      return false;
    }
  }
  Admit(&queue_, std::move(pkt), now);
  return true;
}

std::optional<Packet> Pie::Dequeue(SimTime now) {
  ScopedConservationAudit audit(this);
  if (queue_.empty()) {
    have_last_dequeue_ = false;
    return std::nullopt;
  }
  Packet pkt = PopHead(&queue_);

  // Drain-rate estimation.
  if (have_last_dequeue_) {
    TimeDelta gap = now - last_dequeue_;
    if (gap > TimeDelta::Zero()) {
      double inst = static_cast<double>(pkt.size_bytes) / gap.ToSeconds();
      if (avg_drain_rate_bytes_per_sec_ <= 0.0) {
        avg_drain_rate_bytes_per_sec_ = inst;
      } else {
        avg_drain_rate_bytes_per_sec_ = 0.9 * avg_drain_rate_bytes_per_sec_ + 0.1 * inst;
      }
    }
  }
  last_dequeue_ = now;
  have_last_dequeue_ = true;

  CountDequeue(pkt, now);
  return pkt;
}

}  // namespace element
