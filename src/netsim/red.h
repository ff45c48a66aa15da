// Random Early Detection (Floyd & Jacobson 1993) — the classic AQM that
// CoDel/PIE position themselves against ("is CoDel really achieving what RED
// cannot?", the paper's reference [41]). Included as an additional baseline
// for the qdisc comparison and ablation benches.

#ifndef ELEMENT_SRC_NETSIM_RED_H_
#define ELEMENT_SRC_NETSIM_RED_H_

#include "src/common/rng.h"
#include "src/netsim/qdisc.h"

namespace element {

// Early drops start when the average queue reaches 0.2x the limit, and the
// drop probability climbs to 0.1 at 0.6x the limit; the average queue is an
// EWMA with weight 0.002.
class Red : public Qdisc {
 public:
  Red(size_t limit_packets, Rng rng);

  bool Enqueue(Packet&& pkt, SimTime now) override;
  std::optional<Packet> Dequeue(SimTime now) override;
  size_t packet_count() const override { return queue_.size(); }
  int64_t byte_count() const override { return queue_.bytes; }
  std::string name() const override { return "red"; }

  double average_queue() const { return avg_queue_; }  // lint_sim: allow(test-only) -- observer

 private:
  double CurrentDropProbability() const;

  size_t limit_packets_;
  double min_threshold_packets_;
  double max_threshold_packets_;
  Rng rng_;
  PacketQueue queue_;

  double avg_queue_ = 0.0;
  int count_since_drop_ = -1;  // packets since the last early drop
  SimTime idle_since_;
  bool idle_ = true;
};

}  // namespace element

#endif  // ELEMENT_SRC_NETSIM_RED_H_
