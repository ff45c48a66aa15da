// Linux's default qdisc: three strict-priority FIFO bands with a shared
// packet-count limit (txqueuelen). This is the discipline under which the
// paper observes the worst bufferbloat (Figure 2).

#ifndef ELEMENT_SRC_NETSIM_PFIFO_FAST_H_
#define ELEMENT_SRC_NETSIM_PFIFO_FAST_H_

#include <array>

#include "src/common/ring_fifo.h"
#include "src/netsim/qdisc.h"

namespace element {

class PfifoFast : public Qdisc {
 public:
  explicit PfifoFast(size_t limit_packets = 1000);

  bool Enqueue(Packet pkt, SimTime now) override;
  std::optional<Packet> Dequeue(SimTime now) override;
  size_t packet_count() const override { return total_packets_; }
  int64_t byte_count() const override { return total_bytes_; }
  std::string name() const override { return "pfifo_fast"; }

 private:
  static constexpr size_t kBands = 3;

  size_t limit_;
  size_t total_packets_ = 0;
  int64_t total_bytes_ = 0;
  std::array<RingFifo<Packet>, kBands> bands_;
};

}  // namespace element

#endif  // ELEMENT_SRC_NETSIM_PFIFO_FAST_H_
