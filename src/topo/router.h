// Router: the forwarding element of the multi-flow topology layer. A router
// owns nothing but a forwarding table; its egress "ports" are plain
// PacketSinks (usually Pipes owned by the Network, sometimes a host demux or
// another router directly). Forwarding is static: routes are installed when a
// flow is wired through the topology and kept until the run ends — there is
// no routing protocol, which keeps multi-hop runs exactly reproducible.
//
// Exact routes live in a Demux from flow id to the egress port's sink, so the
// per-packet cost on the forwarding hot path is one bounds check and one
// load. Flows without an exact route fall through to the default port (the
// "next hop toward the far end" in dumbbell/parking-lot shapes); packets with
// neither are counted dropped, never delivered.

#ifndef ELEMENT_SRC_TOPO_ROUTER_H_
#define ELEMENT_SRC_TOPO_ROUTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/netsim/pipe.h"

namespace element {

struct RouterStats {
  uint64_t forwarded_packets = 0;
  uint64_t unroutable_packets = 0;  // no exact route and no default port
};

class Router : public PacketSink {
 public:
  explicit Router(std::string name) : name_(std::move(name)) {}

  // Registers an egress port and returns its index. Ports are never removed;
  // topology shape is fixed for the lifetime of a run.
  int AddPort(PacketSink* next_hop) {
    ELEMENT_CHECK(next_hop != nullptr) << name_ << ": null egress port";
    ports_.push_back(next_hop);
    return static_cast<int>(ports_.size()) - 1;
  }
  int port_count() const { return static_cast<int>(ports_.size()); }

  // Flows without an exact route forward here (-1 disables, the default).
  void SetDefaultPort(int port) {
    ELEMENT_CHECK(port >= -1 && port < port_count())
        << name_ << ": bad default port " << port;
    default_port_ = port < 0 ? nullptr : ports_[static_cast<size_t>(port)];
  }

  // Installing over a live route to another port is a DCHECK failure: the
  // old flow's in-flight packets would be misdelivered.
  void AddRoute(uint64_t flow_id, int port) {
    ELEMENT_CHECK(port >= 0 && port < port_count()) << name_ << ": bad port " << port;
    next_hops_.Register(flow_id, ports_[static_cast<size_t>(port)]);
  }
  size_t route_table_size() const {  // lint_sim: allow(test-only) -- observer
    return next_hops_.table_size();
  }

  const RouterStats& stats() const { return stats_; }

  // PacketSink: table lookup + hand-off to the egress port.
  void Deliver(Packet pkt) override;

 private:
  std::string name_;
  std::vector<PacketSink*> ports_;
  Demux next_hops_;  // flow id -> egress port's sink
  PacketSink* default_port_ = nullptr;
  RouterStats stats_;
};

}  // namespace element

#endif  // ELEMENT_SRC_TOPO_ROUTER_H_
