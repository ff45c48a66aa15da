#include "src/topo/router.h"

#include <utility>

namespace element {

void Router::Deliver(Packet pkt) {
  PacketSink* out = next_hops_.Find(pkt.flow_id);
  if (out == nullptr) {
    out = default_port_;
  }
  if (out == nullptr) {
    ++stats_.unroutable_packets;
    return;
  }
  ++stats_.forwarded_packets;
  out->Deliver(std::move(pkt));
}

}  // namespace element
