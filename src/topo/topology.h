// Multi-flow network topology: routers, per-egress-port pipes, and host
// attachment points, built from a declarative TopologySpec.
//
// Shapes
//   dumbbell     N sender hosts -- [access] -- R0 == bottleneck == R1 --
//                [access] -- N receiver hosts. Every flow shares the one
//                bottleneck qdisc in each direction.
//   parking lot  R0 == hop0 == R1 == hop1 == ... == R_hops. End-to-end hosts
//                attach at R0/R_hops; per-hop cross traffic attaches at
//                (R_i, R_{i+1}) so each hop sees its own contention.
//
// The Network owns every pipe, router, and host demux. Endpoints (TcpSocket,
// UdpSocket, listeners) are created by the caller against a host pair's
// {tx, rx} attachment: tx is the host's access pipe into the topology, rx is
// the host's demux. Routing is explicit: RouteFlow installs the exact-match
// exit routes a flow needs (intermediate routers forward on their default
// "next hop" port), UnrouteFlow removes them, and flow ids are recycled
// through a free list so the routers' dense tables stay proportional to the
// peak concurrent flow count.
//
// Determinism rules (see docs/topology.md): construction order is fixed by
// the spec, every pipe forks the caller's Rng in that order, and the layer
// adds no randomness of its own — seeded runs are byte-identical.

#ifndef ELEMENT_SRC_TOPO_TOPOLOGY_H_
#define ELEMENT_SRC_TOPO_TOPOLOGY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/evloop/event_loop.h"
#include "src/netsim/pipe.h"
#include "src/netsim/qdisc_factory.h"
#include "src/topo/router.h"

namespace element {

enum class TopologyShape { kDumbbell, kParkingLot };

struct TopologySpec {
  TopologyShape shape = TopologyShape::kDumbbell;

  // End-to-end sender/receiver host pairs attached at the topology's ends.
  // Multiple flows may share one pair (they then also share its access
  // pipes); the canonical dumbbell uses one pair per flow.
  int host_pairs = 2;

  // Bottleneck links in series. A dumbbell is the hops == 1 special case;
  // parking lots use hops >= 2 with cross traffic attached per hop.
  int hops = 1;

  // Per-hop bottleneck configuration (every hop is identical; heterogeneous
  // hops were not needed for the paper's scenarios).
  QdiscType qdisc = QdiscType::kPfifoFast;
  size_t queue_limit_packets = 100;
  bool ecn = false;
  DataRate bottleneck_rate = DataRate::Mbps(10);
  TimeDelta bottleneck_delay = TimeDelta::FromMillis(10);  // propagation per hop
  // Reverse-direction bottleneck rate; zero mirrors the forward rate. The
  // reverse qdisc is always a roomy pfifo_fast (ACKs must not be the
  // experiment's bottleneck unless the spec lowers this rate).
  DataRate reverse_rate = DataRate::Zero();

  // Host access links. Zero rate auto-sizes to 10x the bottleneck so access
  // never masks bottleneck contention.
  DataRate access_rate = DataRate::Zero();
  TimeDelta access_delay = TimeDelta::FromMillis(1);
  size_t access_queue_packets = 1000;

  // Empty string when well-formed, else the first problem.
  std::string Validate() const;
};

class Network {
 public:
  // `loop` and `rng` must outlive the network; pipes fork `rng` in
  // construction order.
  Network(EventLoop* loop, Rng* rng, const TopologySpec& spec);

  const TopologySpec& spec() const { return spec_; }
  int levels() const { return spec_.hops + 1; }

  // One endpoint's attachment: where it transmits into the topology and the
  // demux its packets are delivered to.
  struct Attachment {
    PacketSink* tx = nullptr;
    Demux* rx = nullptr;
  };

  // Attaches a host pair whose sender injects at router level `sender_level`
  // and whose receiver exits at `receiver_level` (sender_level <
  // receiver_level). The spec's end-to-end pairs are pre-attached at levels
  // (0, hops); cross-traffic builders attach per-hop pairs (i, i+1).
  // Returns the pair index.
  int AttachHostPair(int sender_level, int receiver_level);
  int host_pair_count() const { return static_cast<int>(pairs_.size()); }

  Attachment sender(int pair) const;
  Attachment receiver(int pair) const;

  // Flow id allocation with recycling: released ids are reused (LIFO) so the
  // routers' dense tables do not grow with churn. An id must only be released
  // after its endpoints are unregistered and unrouted, and — if it may be
  // reused while old packets could still be in flight — after the loop has
  // drained those deliveries (see docs/topology.md).
  uint64_t AllocateFlowId();
  void ReleaseFlowId(uint64_t flow_id);

  // Installs / removes the exact-match exit routes for one flow between the
  // endpoints of `pair` (both directions).
  void RouteFlow(uint64_t flow_id, int pair);
  void UnrouteFlow(uint64_t flow_id, int pair);

  Router& forward_router(int level) { return *fwd_routers_[static_cast<size_t>(level)]; }
  Router& reverse_router(int level) { return *rev_routers_[static_cast<size_t>(level)]; }
  // Forward-direction bottleneck of hop `h` (0-based).
  Qdisc& bottleneck_qdisc(int hop);
  Pipe& bottleneck_pipe(int hop) { return *fwd_bottlenecks_[static_cast<size_t>(hop)]; }

  // Propagation-only round trip between the endpoints of `pair`.
  TimeDelta BaseRtt(int pair) const;

  // Sum of packets forwarded by every router (the topo micro-bench metric).
  uint64_t TotalForwardedPackets() const;
  // Sum of packets dropped for lack of a route anywhere in the topology.
  uint64_t TotalUnroutablePackets() const;

  // Binds every bottleneck qdisc to the run's spine. Hop h's forward qdisc
  // gets source id 2h and its reverse qdisc 2h+1, so multi-hop traces stay
  // distinguishable per direction. Access pipes are not bound: they are
  // deliberately over-provisioned and would only add noise records.
  void BindTelemetry(telemetry::TelemetrySpine* spine) {
    for (size_t h = 0; h < fwd_bottlenecks_.size(); ++h) {
      fwd_bottlenecks_[h]->BindTelemetry(spine, static_cast<uint16_t>(2 * h));
      rev_bottlenecks_[h]->BindTelemetry(spine, static_cast<uint16_t>(2 * h + 1));
    }
  }

  // Mirrors router forwarding counters and per-hop bottleneck pipe/qdisc
  // counters into `registry` (end-of-run publication, never the hot path).
  void PublishMetrics(telemetry::MetricRegistry* registry, const std::string& prefix) const {
    for (size_t level = 0; level < fwd_routers_.size(); ++level) {
      const std::string lv = std::to_string(level);
      fwd_routers_[level]->PublishMetrics(registry, prefix + "router.fwd." + lv + ".");
      rev_routers_[level]->PublishMetrics(registry, prefix + "router.rev." + lv + ".");
    }
    for (size_t h = 0; h < fwd_bottlenecks_.size(); ++h) {
      const std::string hop = std::to_string(h);
      fwd_bottlenecks_[h]->PublishMetrics(registry, prefix + "hop." + hop + ".fwd.");
      rev_bottlenecks_[h]->PublishMetrics(registry, prefix + "hop." + hop + ".rev.");
    }
  }

 private:
  struct HostPair {
    int sender_level = 0;
    int receiver_level = 1;
    std::unique_ptr<Demux> sender_rx;
    std::unique_ptr<Demux> receiver_rx;
    Pipe* sender_out = nullptr;    // host -> fwd_router[sender_level]
    Pipe* sender_in = nullptr;     // rev_router[sender_level] -> host
    Pipe* receiver_out = nullptr;  // host -> rev_router[receiver_level]
    Pipe* receiver_in = nullptr;   // fwd_router[receiver_level] -> host
    int fwd_exit_port = -1;  // port on fwd_router[receiver_level] to receiver_in
    int rev_exit_port = -1;  // port on rev_router[sender_level] to sender_in
  };

  Pipe* MakeAccessPipe(PacketSink* out);

  EventLoop* loop_;
  Rng* rng_;
  TopologySpec spec_;
  DataRate access_rate_;

  std::vector<std::unique_ptr<Router>> fwd_routers_;  // levels 0..hops
  std::vector<std::unique_ptr<Router>> rev_routers_;
  std::vector<Pipe*> fwd_bottlenecks_;  // hop h: fwd_router[h] -> fwd_router[h+1]
  std::vector<Pipe*> rev_bottlenecks_;  // hop h: rev_router[h+1] -> rev_router[h]
  std::vector<std::unique_ptr<Pipe>> pipes_;  // owns every pipe
  std::vector<HostPair> pairs_;

  uint64_t next_flow_id_ = 1;
  std::vector<uint64_t> free_flow_ids_;
};

}  // namespace element

#endif  // ELEMENT_SRC_TOPO_TOPOLOGY_H_
