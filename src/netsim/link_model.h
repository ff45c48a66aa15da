// Link models: the serialization rate, propagation delay, jitter, and wire
// loss of one direction of a path. These stand in for the paper's production
// networks (LAN, cable, WiFi, LTE) and its tc/netem WAN emulator — see the
// substitution table in DESIGN.md.

#ifndef ELEMENT_SRC_NETSIM_LINK_MODEL_H_
#define ELEMENT_SRC_NETSIM_LINK_MODEL_H_

#include <memory>
#include <string>
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
  virtual bool DropOnWire(Rng& rng, SimTime now) {
    (void)rng;
    (void)now;
    return false;
  }
  virtual std::string name() const = 0;
};

// Fixed-rate, fixed-delay link with optional i.i.d. loss — the tc/netem
// equivalent used in the controlled experiments.
class FixedLinkModel : public LinkModel {
 public:
  FixedLinkModel(DataRate rate, TimeDelta prop_delay, double loss_prob = 0.0);

  DataRate RateAt(SimTime now) override;
  TimeDelta PropagationDelay() const override { return prop_delay_; }
  bool DropOnWire(Rng& rng, SimTime now) override;
  std::string name() const override { return "fixed"; }

 private:
  DataRate rate_;
  TimeDelta prop_delay_;
  double loss_prob_;
};

// Bandwidth follows a repeating schedule of (duration, rate) steps — used for
// the Figure 8 "dynamic bandwidth" scenario (10 <-> 50 Mbps every 20 s).
class SteppedLinkModel : public LinkModel {
 public:
  struct Step {
    TimeDelta duration;
    DataRate rate;
  };
  SteppedLinkModel(std::vector<Step> steps, TimeDelta prop_delay, double loss_prob = 0.0);

  DataRate RateAt(SimTime now) override;
  TimeDelta PropagationDelay() const override { return prop_delay_; }
  bool DropOnWire(Rng& rng, SimTime now) override;
  std::string name() const override { return "stepped"; }

 private:
  std::vector<Step> steps_;
  TimeDelta cycle_;
  TimeDelta prop_delay_;
  double loss_prob_;
};

// DOCSIS-like cable access link: stable rate with mild jitter.
class CableLinkModel : public LinkModel {
 public:
  CableLinkModel(DataRate rate, TimeDelta prop_delay, Rng rng);

  DataRate RateAt(SimTime now) override;
  TimeDelta PropagationDelay() const override { return prop_delay_; }
  TimeDelta JitterFor(Rng& rng) override;
  bool DropOnWire(Rng& rng, SimTime now) override;
  std::string name() const override { return "cable"; }

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
  bool DropOnWire(Rng& rng, SimTime now) override;
  std::string name() const override { return "wifi"; }

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
  bool DropOnWire(Rng& rng, SimTime now) override;
  std::string name() const override { return "lte"; }

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
