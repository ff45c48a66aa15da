#include "src/netsim/link_model.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"

namespace element {

ScheduledLinkModel::ScheduledLinkModel(DataRate rate, TimeDelta prop_delay, double loss_prob)
    : held_rate_(rate), prop_delay_(prop_delay), loss_prob_(loss_prob) {}

ScheduledLinkModel::ScheduledLinkModel(std::vector<Step> steps, TimeDelta prop_delay,
                                       double loss_prob)
    : prop_delay_(prop_delay), loss_prob_(loss_prob), steps_(std::move(steps)) {
  ELEMENT_CHECK(!steps_.empty()) << "a link schedule needs at least one step";
  held_rate_ = steps_.back().rate;
  ends_ns_.reserve(steps_.size());
  for (const Step& s : steps_) {
    ELEMENT_CHECK(s.duration >= TimeDelta::Zero())
        << "negative schedule step: " << s.duration.nanos() << " ns";
    cycle_ns_ += s.duration.nanos();
    ends_ns_.push_back(cycle_ns_);
  }
}

DataRate ScheduledLinkModel::RateAt(SimTime now) {
  if (cycle_ns_ == 0) {
    return held_rate_;
  }
  // The first step that ends after `now` within the cycle; a zero-length
  // step ends where its predecessor does, so it is never chosen.
  auto it = std::upper_bound(ends_ns_.begin(), ends_ns_.end(), now.nanos() % cycle_ns_);
  return steps_[static_cast<size_t>(it - ends_ns_.begin())].rate;
}

bool ScheduledLinkModel::DropOnWire(Rng& rng) {
  return loss_prob_ > 0.0 && rng.Bernoulli(loss_prob_);
}

CableLinkModel::CableLinkModel(DataRate rate, TimeDelta prop_delay, Rng rng)
    : rate_(rate), prop_delay_(prop_delay), rng_(std::move(rng)) {}

DataRate CableLinkModel::RateAt(SimTime /*now*/) { return rate_; }

TimeDelta CableLinkModel::JitterFor(Rng& rng) {
  // DOCSIS request/grant cycles add sub-millisecond scheduling jitter.
  return TimeDelta::FromSeconds(rng.Exponential(0.0004));
}

bool CableLinkModel::DropOnWire(Rng& rng) { return rng.Bernoulli(0.00005); }

WifiLinkModel::WifiLinkModel(Rng rng, DataRate mean_rate, TimeDelta prop_delay)
    : rng_(std::move(rng)), mean_rate_(mean_rate), prop_delay_(prop_delay) {}

void WifiLinkModel::MaybeTransition(SimTime now) {
  while (now >= next_transition_) {
    // Rate adaptation: pick an MCS-style factor; dwell ~100-400 ms.
    static constexpr double kFactors[] = {0.35, 0.6, 0.85, 1.0, 1.15, 1.3};
    rate_factor_ = kFactors[rng_.UniformInt(0, 5)];
    // Loss process: mostly good state; occasional fade burst.
    if (loss_burst_) {
      loss_burst_ = rng_.Bernoulli(0.35);  // bursts persist briefly
    } else {
      loss_burst_ = rng_.Bernoulli(0.04);
    }
    next_transition_ = next_transition_ + TimeDelta::FromSeconds(rng_.Uniform(0.1, 0.4));
  }
}

DataRate WifiLinkModel::RateAt(SimTime now) {
  MaybeTransition(now);
  return mean_rate_ * rate_factor_;
}

TimeDelta WifiLinkModel::JitterFor(Rng& rng) {
  // CSMA contention + aggregation delay, heavy-ish tail.
  return TimeDelta::FromSeconds(std::min(rng.Exponential(0.0012), 0.02));
}

bool WifiLinkModel::DropOnWire(Rng& rng) {
  return rng.Bernoulli(loss_burst_ ? 0.02 : 0.0005);
}

LteLinkModel::LteLinkModel(Rng rng, DataRate mean_rate, TimeDelta prop_delay)
    : rng_(std::move(rng)), mean_rate_(mean_rate), prop_delay_(prop_delay) {}

void LteLinkModel::MaybeTransition(SimTime now) {
  while (now >= next_transition_) {
    // Channel quality random walk, clipped; dwell ~200-800 ms.
    double step = rng_.Normal(0.0, 0.15);
    rate_factor_ = std::clamp(rate_factor_ + step, 0.4, 1.6);
    next_transition_ = next_transition_ + TimeDelta::FromSeconds(rng_.Uniform(0.2, 0.8));
  }
}

DataRate LteLinkModel::RateAt(SimTime now) {
  MaybeTransition(now);
  return mean_rate_ * rate_factor_;
}

TimeDelta LteLinkModel::JitterFor(Rng& rng) {
  // Scheduler TTI alignment + HARQ retransmissions.
  double base = rng.Uniform(0.0, 0.001);
  if (rng.Bernoulli(0.05)) {
    base += 0.008;  // one HARQ round trip
  }
  return TimeDelta::FromSeconds(base);
}

bool LteLinkModel::DropOnWire(Rng& rng) {
  // HARQ hides nearly all radio loss from IP.
  return rng.Bernoulli(0.00002);
}

}  // namespace element
