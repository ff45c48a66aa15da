// Linux's default qdisc: three strict-priority FIFO bands with a shared
// packet-count limit (txqueuelen). This is the discipline under which the
// paper observes the worst bufferbloat (Figure 2).

#ifndef ELEMENT_SRC_NETSIM_PFIFO_FAST_H_
#define ELEMENT_SRC_NETSIM_PFIFO_FAST_H_

#include <array>

#include "src/netsim/qdisc.h"

namespace element {

// Final, so Enqueue's limit check calls packet_count() directly.
class PfifoFast final : public Qdisc {
 public:
  explicit PfifoFast(size_t limit_packets = 1000);

  bool Enqueue(Packet pkt, SimTime now) override;
  std::optional<Packet> Dequeue(SimTime now) override;
  size_t packet_count() const override {
    return bands_[0].size() + bands_[1].size() + bands_[2].size();
  }
  int64_t byte_count() const override {
    return bands_[0].bytes + bands_[1].bytes + bands_[2].bytes;
  }
  std::string name() const override { return "pfifo_fast"; }

 private:
  static constexpr size_t kBands = 3;

  size_t limit_;
  std::array<PacketQueue, kBands> bands_;
};

}  // namespace element

#endif  // ELEMENT_SRC_NETSIM_PFIFO_FAST_H_
