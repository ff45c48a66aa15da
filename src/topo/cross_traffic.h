// Cross-traffic generators for topology experiments: the "production
// network" background load that single-path testbeds cannot express.
//
// Two flavors, both real TCP flows through the shared qdiscs (so they react
// to the AQM exactly like the foreground traffic does):
//   - long-lived iperf-style flows (IperfApp): persistent full-rate
//     contenders, the classic dumbbell competitor;
//   - on-off web-like flows (OnOffSender): Pareto-sized bursts separated by
//     exponential idle gaps — heavy-tailed, bursty load that stresses AQM
//     reaction time the way short web transfers do.
//
// Determinism: every flow's socket and every on-off draw forks the scenario
// Rng in construction order; cross traffic adds no wall-clock or global
// state, so seeded runs replay byte-identically.

#ifndef ELEMENT_SRC_TOPO_CROSS_TRAFFIC_H_
#define ELEMENT_SRC_TOPO_CROSS_TRAFFIC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/apps/iperf_app.h"
#include "src/common/rng.h"
#include "src/element/byte_sink.h"
#include "src/evloop/event_loop.h"
#include "src/tcpsim/tcp_socket.h"
#include "src/topo/topology.h"

namespace element {

struct CrossTrafficConfig {
  // Flows attached *per hop*: hop h's cross pairs enter at router level h and
  // exit at h+1, so every hop of a parking lot sees its own contention. On a
  // dumbbell (hops == 1) they simply share the one bottleneck.
  int iperf_flows = 0;
  int onoff_flows = 0;

  std::string congestion_control = "cubic";
};

// Drives one sender socket with Pareto on / exponential off periods: bursts
// average 256 KiB (heavy tailed, like web-object sizes), idle gaps 500 ms.
class OnOffSender {
 public:
  OnOffSender(EventLoop* loop, TcpSocket* socket, Rng rng);

  void Start();

 private:
  void StartBurst();
  void Pump();

  TcpSocket* socket_;
  Rng rng_;
  uint64_t burst_remaining_ = 0;
  bool started_ = false;
  Timer off_timer_;
};

// Owns the host pairs, sockets, and apps of a Network's cross-traffic load.
class CrossTraffic {
 public:
  // Attaches (iperf_flows + onoff_flows) host pairs per hop and wires a
  // connected TCP flow through each, ECN-capable when `net->spec().ecn`;
  // Start() begins all generators.
  CrossTraffic(EventLoop* loop, Rng* rng, Network* net, const CrossTrafficConfig& config);

  void Start();
  size_t flow_count() const { return flows_.size(); }
  // Application bytes delivered to cross receivers so far.
  uint64_t TotalBytesDelivered() const;

 private:
  struct CrossFlow {
    uint64_t flow_id = 0;
    int pair = -1;
    std::unique_ptr<TcpSocket> sender;
    std::unique_ptr<TcpSocket> receiver;
    std::unique_ptr<RawTcpSink> sink;
    std::unique_ptr<IperfApp> iperf;
    std::unique_ptr<OnOffSender> onoff;
    std::unique_ptr<SinkApp> reader;
  };

  void AddFlow(EventLoop* loop, Rng* rng, Network* net, int hop, bool onoff);

  CrossTrafficConfig config_;
  std::vector<CrossFlow> flows_;
};

}  // namespace element

#endif  // ELEMENT_SRC_TOPO_CROSS_TRAFFIC_H_
