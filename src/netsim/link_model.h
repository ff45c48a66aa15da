// Link models: the serialization rate, propagation delay, jitter, and wire
// loss of one direction of a path. These stand in for the paper's production
// networks (LAN, cable, WiFi, LTE) and its tc/netem WAN emulator — see the
// substitution table in DESIGN.md.

#ifndef ELEMENT_SRC_NETSIM_LINK_MODEL_H_
#define ELEMENT_SRC_NETSIM_LINK_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/common/data_rate.h"
#include "src/common/rng.h"
#include "src/common/time.h"

namespace element {

class LinkModel {
 public:
  virtual ~LinkModel() = default;

  // Current serialization rate; may evolve internal state with time.
  virtual DataRate RateAt(SimTime now) = 0;
  virtual TimeDelta PropagationDelay() const = 0;
  // Extra per-packet delay (contention, scheduling); zero by default.
  virtual TimeDelta JitterFor(Rng& rng) {
    (void)rng;
    return TimeDelta::Zero();
  }
  // Random loss on the wire (after the queue), e.g. radio loss.
  virtual bool DropOnWire(Rng& rng) {
    (void)rng;
    return false;
  }
};

// Capacity that is piecewise constant in time: a looping schedule of
// (duration, rate) steps, a propagation delay and i.i.d. wire loss. A single
// rate is a one-step schedule: the tc/netem link of the controlled
// experiments. Two steps give the Figure 8 "dynamic bandwidth" scenario
// (10 <-> 50 Mbps every 20 s), and ScheduleFromTrace (trace_link.h) turns a
// recorded bandwidth trace into steps for replay.
class ScheduledLinkModel : public LinkModel {
 public:
  struct Step {
    TimeDelta duration;
    DataRate rate;
  };
  // A constant-rate link.
  ScheduledLinkModel(DataRate rate, TimeDelta prop_delay, double loss_prob = 0.0);
  // Step i holds for its duration, then step i + 1; after the last step the
  // schedule starts over. A zero-length step never holds, and a schedule that
  // spans no time holds its last step's rate. `steps` must not be empty.
  ScheduledLinkModel(std::vector<Step> steps, TimeDelta prop_delay, double loss_prob = 0.0);

  DataRate RateAt(SimTime now) override;
  TimeDelta PropagationDelay() const override { return prop_delay_; }
  bool DropOnWire(Rng& rng) override;

 private:
  // The rate when the schedule spans no time: the last step's, or the one
  // rate, for which no steps are stored, so the per-packet lookup of a
  // constant link reads one member and the link allocates nothing.
  DataRate held_rate_;
  int64_t cycle_ns_ = 0;
  TimeDelta prop_delay_;
  double loss_prob_;
  std::vector<Step> steps_;
  std::vector<int64_t> ends_ns_;  // where each step ends within the cycle
};

// DOCSIS-like cable access link: stable rate with mild jitter.
class CableLinkModel : public LinkModel {
 public:
  CableLinkModel(DataRate rate, TimeDelta prop_delay, Rng rng);

  DataRate RateAt(SimTime now) override;
  TimeDelta PropagationDelay() const override { return prop_delay_; }
  TimeDelta JitterFor(Rng& rng) override;
  bool DropOnWire(Rng& rng) override;

 private:
  DataRate rate_;
  TimeDelta prop_delay_;
  Rng rng_;
};

// 802.11-style link: Markov-modulated rate (MCS shifts), contention jitter,
// and Gilbert-Elliott bursty loss.
class WifiLinkModel : public LinkModel {
 public:
  explicit WifiLinkModel(Rng rng, DataRate mean_rate = DataRate::Mbps(60),
                         TimeDelta prop_delay = TimeDelta::FromMillis(3));

  DataRate RateAt(SimTime now) override;
  TimeDelta PropagationDelay() const override { return prop_delay_; }
  TimeDelta JitterFor(Rng& rng) override;
  bool DropOnWire(Rng& rng) override;

 private:
  void MaybeTransition(SimTime now);

  Rng rng_;
  DataRate mean_rate_;
  TimeDelta prop_delay_;
  double rate_factor_ = 1.0;      // current MCS factor of mean rate
  SimTime next_transition_ = SimTime::Zero();
  bool loss_burst_ = false;       // Gilbert-Elliott bad state
};

// Cellular LTE link: slowly varying rate, larger base delay, scheduling jitter.
class LteLinkModel : public LinkModel {
 public:
  explicit LteLinkModel(Rng rng, DataRate mean_rate = DataRate::Mbps(25),
                        TimeDelta prop_delay = TimeDelta::FromMillis(25));

  DataRate RateAt(SimTime now) override;
  TimeDelta PropagationDelay() const override { return prop_delay_; }
  TimeDelta JitterFor(Rng& rng) override;
  bool DropOnWire(Rng& rng) override;

 private:
  void MaybeTransition(SimTime now);

  Rng rng_;
  DataRate mean_rate_;
  TimeDelta prop_delay_;
  double rate_factor_ = 1.0;
  SimTime next_transition_ = SimTime::Zero();
};

}  // namespace element

#endif  // ELEMENT_SRC_NETSIM_LINK_MODEL_H_
