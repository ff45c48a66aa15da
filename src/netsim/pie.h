// PIE — Proportional Integral controller Enhanced (RFC 8033). Probabilistic
// drops at enqueue driven by an estimated queueing delay. AQM baseline in
// Figure 3.

#ifndef ELEMENT_SRC_NETSIM_PIE_H_
#define ELEMENT_SRC_NETSIM_PIE_H_

#include "src/common/rng.h"
#include "src/netsim/qdisc.h"

namespace element {

// RFC 8033's controller: a 15 ms target delay, updated every 15 ms, with a
// 150 ms burst allowance.
class Pie : public Qdisc {
 public:
  explicit Pie(Rng rng, size_t limit_packets = 1000);

  bool Enqueue(Packet&& pkt, SimTime now) override;
  std::optional<Packet> Dequeue(SimTime now) override;
  size_t packet_count() const override { return queue_.size(); }
  int64_t byte_count() const override { return queue_.bytes; }
  std::string name() const override { return "pie"; }

  double drop_probability() const { return drop_prob_; }  // lint_sim: allow(test-only) -- observer

 private:
  void MaybeUpdateProbability(SimTime now);
  TimeDelta EstimateQueueDelay() const;

  size_t limit_packets_;
  Rng rng_;
  PacketQueue queue_;

  double drop_prob_ = 0.0;
  TimeDelta qdelay_old_ = TimeDelta::Zero();
  SimTime last_update_ = SimTime::Zero();
  TimeDelta burst_left_ = TimeDelta::Zero();
  bool first_update_done_ = false;

  // Departure-rate estimation (simplified RFC 8033 §5.2): EWMA of the rate
  // observed between dequeues while the queue is non-trivial.
  double avg_drain_rate_bytes_per_sec_ = 0.0;
  SimTime last_dequeue_ = SimTime::Zero();
  bool have_last_dequeue_ = false;
};

}  // namespace element

#endif  // ELEMENT_SRC_NETSIM_PIE_H_
