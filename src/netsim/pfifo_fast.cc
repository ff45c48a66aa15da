#include "src/netsim/pfifo_fast.h"

#include <utility>

namespace element {

PfifoFast::PfifoFast(size_t limit_packets) : limit_(limit_packets) {}

bool PfifoFast::Enqueue(Packet pkt, SimTime now) {
  ScopedConservationAudit audit(this);
  if (packet_count() >= limit_) {
    CountDropPreQueue(pkt, now);
    return false;
  }
  size_t band = pkt.priority_band < kBands ? pkt.priority_band : kBands - 1;
  Admit(&bands_[band], std::move(pkt), now);
  return true;
}

std::optional<Packet> PfifoFast::Dequeue(SimTime now) {
  ScopedConservationAudit audit(this);
  for (PacketQueue& band : bands_) {
    if (!band.empty()) {
      Packet pkt = PopHead(&band);
      CountDequeue(pkt, now);
      return pkt;
    }
  }
  return std::nullopt;
}

}  // namespace element
