// Tests for the multi-flow topology subsystem: router forwarding, dumbbell /
// parking-lot delivery, ECN CE survival across hops, and seeded-run
// determinism.

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/evloop/event_loop.h"
#include "src/topo/contention.h"
#include "src/topo/cross_traffic.h"
#include "src/topo/router.h"
#include "src/topo/topology.h"
#include "src/trace/sojourn_sink.h"

namespace element {
namespace {

SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

class CaptureSink : public PacketSink {
 public:
  void Deliver(Packet pkt) override { packets.push_back(std::move(pkt)); }
  std::vector<Packet> packets;
};

Packet MakePacket(uint64_t flow_id, uint32_t size = 1500) {
  Packet pkt;
  pkt.flow_id = flow_id;
  pkt.size_bytes = size;
  return pkt;
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

TEST(RouterTest, ExactRouteWinsOverDefault) {
  Router router("r");
  CaptureSink a;
  CaptureSink b;
  int port_a = router.AddPort(&a);
  int port_b = router.AddPort(&b);
  router.SetDefaultPort(port_a);
  router.AddRoute(7, port_b);

  router.Deliver(MakePacket(7));
  router.Deliver(MakePacket(8));
  EXPECT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(a.packets.size(), 1u);
  EXPECT_EQ(b.packets[0].flow_id, 7u);
  EXPECT_EQ(router.stats().forwarded_packets, 2u);
  EXPECT_EQ(router.stats().unroutable_packets, 0u);
}

TEST(RouterTest, NoRouteNoDefaultCountsUnroutable) {
  Router router("r");
  CaptureSink a;
  int port_a = router.AddPort(&a);
  router.AddRoute(1, port_a);

  router.Deliver(MakePacket(2));
  EXPECT_EQ(a.packets.size(), 0u);
  EXPECT_EQ(router.stats().unroutable_packets, 1u);
  EXPECT_EQ(router.stats().forwarded_packets, 0u);
  // An id far above every routed one is unroutable, and looking it up does
  // not grow the table.
  const size_t table = router.route_table_size();
  router.Deliver(MakePacket(uint64_t{1} << 40));
  EXPECT_EQ(router.stats().unroutable_packets, 2u);
  EXPECT_EQ(router.route_table_size(), table);
  // The installed route still forwards.
  router.Deliver(MakePacket(1));
  EXPECT_EQ(a.packets.size(), 1u);
}

// ---------------------------------------------------------------------------
// Topology shapes
// ---------------------------------------------------------------------------

TEST(TopologyTest, SpecValidation) {
  TopologySpec spec;
  EXPECT_TRUE(spec.Validate().empty());
  spec.hops = 3;
  EXPECT_FALSE(spec.Validate().empty());  // dumbbell is single-hop
  spec.shape = TopologyShape::kParkingLot;
  EXPECT_TRUE(spec.Validate().empty());
  spec.hops = 17;
  EXPECT_FALSE(spec.Validate().empty());
  spec = TopologySpec{};
  spec.host_pairs = 0;
  EXPECT_FALSE(spec.Validate().empty());
  spec = TopologySpec{};
  spec.queue_limit_packets = 0;
  EXPECT_FALSE(spec.Validate().empty());
}

TEST(TopologyTest, DumbbellDeliversRawPacketsBothWays) {
  EventLoop loop;
  Rng rng(1);
  TopologySpec spec;
  spec.host_pairs = 2;
  Network net(&loop, &rng, spec);

  uint64_t flow = net.AllocateFlowId();
  net.RouteFlow(flow, 1);
  CaptureSink at_receiver;
  CaptureSink at_sender;
  net.receiver(1).rx->Register(flow, &at_receiver);
  net.sender(1).rx->Register(flow, &at_sender);

  net.sender(1).tx->Deliver(MakePacket(flow));
  loop.RunUntil(Sec(1.0));
  ASSERT_EQ(at_receiver.packets.size(), 1u);

  net.receiver(1).tx->Deliver(MakePacket(flow, 52));
  loop.RunUntil(Sec(2.0));
  ASSERT_EQ(at_sender.packets.size(), 1u);

  EXPECT_GT(net.BaseRtt(1), TimeDelta::Zero());
  EXPECT_EQ(net.TotalUnroutablePackets(), 0u);
  net.receiver(1).rx->Unregister(flow);
  net.sender(1).rx->Unregister(flow);
}

TEST(TopologyTest, UnroutedFlowIsDroppedAtExit) {
  EventLoop loop;
  Rng rng(1);
  TopologySpec spec;
  spec.host_pairs = 1;
  Network net(&loop, &rng, spec);

  // No RouteFlow: the packet forwards onward through default ports but the
  // last router has no exact exit route and no default.
  net.sender(0).tx->Deliver(MakePacket(99));
  loop.RunUntil(Sec(1.0));
  EXPECT_EQ(net.TotalUnroutablePackets(), 1u);
}

// S1: a CE mark applied before (or at) hop 0 must survive forwarding across
// every remaining hop and reach the receiver's demux intact.
TEST(TopologyTest, EcnMarksSurviveMultiHopForwarding) {
  EventLoop loop;
  Rng rng(1);
  TopologySpec spec;
  spec.shape = TopologyShape::kParkingLot;
  spec.hops = 4;
  spec.host_pairs = 1;
  Network net(&loop, &rng, spec);

  uint64_t flow = net.AllocateFlowId();
  net.RouteFlow(flow, 0);
  CaptureSink at_receiver;
  net.receiver(0).rx->Register(flow, &at_receiver);

  Packet marked = MakePacket(flow);
  marked.ecn_capable = true;
  marked.ecn_marked = true;
  Packet unmarked = MakePacket(flow);
  unmarked.ecn_capable = true;
  net.sender(0).tx->Deliver(marked);
  net.sender(0).tx->Deliver(unmarked);
  loop.RunUntil(Sec(1.0));

  ASSERT_EQ(at_receiver.packets.size(), 2u);
  EXPECT_TRUE(at_receiver.packets[0].ecn_capable);
  EXPECT_TRUE(at_receiver.packets[0].ecn_marked);
  EXPECT_TRUE(at_receiver.packets[1].ecn_capable);
  EXPECT_FALSE(at_receiver.packets[1].ecn_marked);
  net.receiver(0).rx->Unregister(flow);
}

// Each hop's qdisc reports its sojourns on the spine under its own source id
// (2h forward, 2h+1 reverse). A burst queues at hop 0 and leaves it paced at
// the bottleneck rate, so hop 1 forwards it with no standing queue.
TEST(TopologyTest, SojournSinkKeepsItsOwnHop) {
  EventLoop loop;
  Rng rng(1);
  TopologySpec spec;
  spec.shape = TopologyShape::kParkingLot;
  spec.hops = 2;
  spec.host_pairs = 1;
  Network net(&loop, &rng, spec);
  telemetry::TelemetrySpine spine;
  net.BindTelemetry(&spine);
  SojournSink hop0(/*source=*/0);
  SojournSink hop1(/*source=*/2);
  SojournSink hop0_reverse(/*source=*/1);
  spine.AttachSink(&hop0);
  spine.AttachSink(&hop1);
  spine.AttachSink(&hop0_reverse);

  uint64_t flow = net.AllocateFlowId();
  net.RouteFlow(flow, 0);
  CaptureSink at_receiver;
  net.receiver(0).rx->Register(flow, &at_receiver);
  constexpr size_t kBurst = 10;
  for (size_t i = 0; i < kBurst; ++i) {
    net.sender(0).tx->Deliver(MakePacket(flow));
  }
  loop.RunUntil(Sec(1.0));
  ASSERT_EQ(at_receiver.packets.size(), kBurst);
  net.receiver(0).rx->Unregister(flow);

  ASSERT_EQ(hop0.series().count(), kBurst);
  ASSERT_EQ(hop1.series().count(), kBurst);
  EXPECT_TRUE(hop0_reverse.series().empty());
  // 10 Mbps bottleneck: each 1500-byte packet waits ~1.2 ms more than the last.
  const std::vector<TimeSeries::Point>& p0 = hop0.series().points();
  for (size_t i = 1; i < kBurst; ++i) {
    EXPECT_GT(p0[i].v, p0[i - 1].v + 0.001) << i;
  }
  EXPECT_LT(hop1.series().Values().max(), 0.001);
}

// S1, end to end: with ECN on a multi-hop path, CoDel marks instead of
// dropping, the receiver echoes the marks back across the reverse routers,
// and the sender reacts — so the transfer completes without retransmissions.
// With ECN off the same path must show CoDel drops instead.
TEST(TopologyTest, EcnEchoTamesCodelAcrossHops) {
  auto run = [](bool ecn) {
    ContentionConfig cfg;
    cfg.topo.shape = TopologyShape::kParkingLot;
    cfg.topo.hops = 3;
    cfg.topo.host_pairs = 1;
    cfg.topo.qdisc = QdiscType::kCoDel;
    cfg.topo.queue_limit_packets = 200;
    cfg.topo.ecn = ecn;
    cfg.ecn = ecn;
    cfg.flows = 1;
    cfg.duration_s = 8.0;
    cfg.warmup_s = 1.0;
    cfg.seed = 5;
    return RunContentionExperiment(cfg);
  };

  ContentionResult with_ecn = run(true);
  ASSERT_EQ(with_ecn.flows.size(), 1u);
  EXPECT_GT(with_ecn.bottleneck.ecn_marked_packets, 0u);
  EXPECT_EQ(with_ecn.flows[0].retransmits, 0u);
  EXPECT_GT(with_ecn.flows[0].goodput_mbps, 5.0);  // 10 Mbps bottleneck
  EXPECT_EQ(with_ecn.unroutable_packets, 0u);

  ContentionResult without_ecn = run(false);
  EXPECT_EQ(without_ecn.bottleneck.ecn_marked_packets, 0u);
  EXPECT_GT(without_ecn.flows[0].retransmits, 0u);
}

// ---------------------------------------------------------------------------
// Cross traffic + determinism
// ---------------------------------------------------------------------------

TEST(TopologyTest, CrossTrafficDeliversOnEveryHop) {
  ContentionConfig cfg;
  cfg.topo.shape = TopologyShape::kParkingLot;
  cfg.topo.hops = 2;
  cfg.topo.host_pairs = 1;
  cfg.flows = 1;
  cfg.cross.iperf_flows = 1;
  cfg.cross.onoff_flows = 1;
  cfg.duration_s = 6.0;
  cfg.warmup_s = 1.0;
  ContentionResult result = RunContentionExperiment(cfg);
  EXPECT_EQ(result.cross_flows, 4u);  // 2 per hop x 2 hops
  EXPECT_GT(result.cross_bytes_delivered, 0u);
  EXPECT_EQ(result.unroutable_packets, 0u);
  // The foreground flow still makes progress under contention.
  EXPECT_GT(result.flows[0].goodput_mbps, 0.5);
}

TEST(TopologyTest, SeededContentionRunsAreIdentical) {
  ContentionConfig cfg;
  cfg.topo.host_pairs = 4;
  cfg.topo.qdisc = QdiscType::kFqCoDel;
  cfg.flows = 4;
  cfg.cross.iperf_flows = 1;
  cfg.cross.onoff_flows = 2;
  cfg.element_on_first = true;
  cfg.duration_s = 5.0;
  cfg.warmup_s = 1.0;
  cfg.seed = 77;

  ContentionResult a = RunContentionExperiment(cfg);
  ContentionResult b = RunContentionExperiment(cfg);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].goodput_mbps, b.flows[i].goodput_mbps);
    EXPECT_EQ(a.flows[i].e2e_delay_s, b.flows[i].e2e_delay_s);
    EXPECT_EQ(a.flows[i].retransmits, b.flows[i].retransmits);
  }
  EXPECT_EQ(a.jain_fairness, b.jain_fairness);
  EXPECT_EQ(a.forwarded_packets, b.forwarded_packets);
  EXPECT_EQ(a.cross_bytes_delivered, b.cross_bytes_delivered);
  EXPECT_EQ(a.processed_events, b.processed_events);
  EXPECT_EQ(a.sender_accuracy.accuracy, b.sender_accuracy.accuracy);
  EXPECT_EQ(a.receiver_accuracy.accuracy, b.receiver_accuracy.accuracy);
}

TEST(JainIndexTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({1.0, 1.0, 1.0, 1.0}), 1.0);
  // One of two flows starved: (1)^2 / (2 * 1) = 0.5.
  EXPECT_DOUBLE_EQ(JainFairnessIndex({1.0, 0.0}), 0.5);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({0.0, 0.0}), 1.0);
}

}  // namespace
}  // namespace element
