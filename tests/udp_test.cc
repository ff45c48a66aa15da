// Tests for the UDP substrate and the Sprout-like / Verus-like behavioural
// models (Figure 16 baselines).

#include <gtest/gtest.h>

#include <memory>

#include "src/apps/iperf_app.h"
#include "src/element/byte_sink.h"
#include "src/tcpsim/testbed.h"
#include "src/udpproto/low_latency_protocols.h"
#include "src/udpproto/udp_socket.h"

namespace element {
namespace {

SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

TEST(UdpSocketTest, DatagramRoundTrip) {
  PathConfig path;
  Testbed bed(1, path);
  uint64_t flow = bed.path().AllocateFlowId();
  UdpSocket client(&bed.loop(), flow, &bed.path().forward(), &bed.path().client_demux());
  UdpSocket server(&bed.loop(), flow, &bed.path().reverse(), &bed.path().server_demux());
  int received = 0;
  SimTime arrival;
  server.SetReceiveCallback([&](const UdpDatagramPayload& dg, const Packet&) {
    ++received;
    arrival = bed.loop().now();
    EXPECT_EQ(dg.seq, 42u);
  });
  UdpDatagramPayload dg;
  dg.seq = 42;
  dg.payload_bytes = 1222;  // 1250 with UDP/IP headers = 1 ms at 10 Mbps
  client.SendDatagram(dg);
  bed.loop().RunUntil(Sec(1.0));
  ASSERT_EQ(received, 1);
  EXPECT_NEAR(arrival.ToSeconds(), 0.026, 0.001);
}

TEST(SproutLikeTest, AloneAchievesLowDelayAndDecentThroughput) {
  PathConfig path;  // 10 Mbps / 25 ms
  Testbed bed(2, path);
  SproutLikeFlow flow(&bed.loop(), &bed.path());
  flow.Start();
  bed.loop().RunUntil(Sec(30.0));
  double mbps = RateOver(static_cast<int64_t>(flow.delivered_bytes()),
                         TimeDelta::FromSecondsInt(30))
                    .ToMbps();
  EXPECT_GT(mbps, 3.0);                              // uses a fair chunk
  EXPECT_LT(flow.one_way_delays().Quantile(0.95), 0.13);  // stays low-delay
}

TEST(VerusLikeTest, AloneKeepsQueueingBounded) {
  PathConfig path;
  Testbed bed(3, path);
  VerusLikeFlow flow(&bed.loop(), &bed.path());
  flow.Start();
  bed.loop().RunUntil(Sec(30.0));
  double mbps = RateOver(static_cast<int64_t>(flow.delivered_bytes()),
                         TimeDelta::FromSecondsInt(30))
                    .ToMbps();
  EXPECT_GT(mbps, 3.0);
  // The 15-45 ms delay target band keeps queueing under ~45 ms + base.
  EXPECT_LT(flow.one_way_delays().Quantile(0.95), 0.12);
}

TEST(VerusLikeTest, WindowShrinksWhenDelayRises) {
  PathConfig path;
  path.rate = DataRate::Mbps(2);  // tiny link: the window must stay small
  Testbed bed(4, path);
  VerusLikeFlow flow(&bed.loop(), &bed.path());
  flow.Start();
  bed.loop().RunUntil(Sec(20.0));
  // 2 Mbps * ~70 ms of allowed queueing ~= 17 KB; window must not blow up.
  EXPECT_LT(flow.window_bytes(), 300000.0);
}

class UdpVsTcpFairnessTest : public ::testing::TestWithParam<const char*> {};

TEST_P(UdpVsTcpFairnessTest, LowDelayButBelowFairShare) {
  // Figure 16's qualitative claim: against 2 Cubic background flows the UDP
  // low-latency protocols keep their own delay low but get less than their
  // fair share of throughput.
  PathConfig path;
  path.rate = DataRate::Mbps(9);
  Testbed bed(5, path);
  std::vector<std::unique_ptr<RawTcpSink>> sinks;
  std::vector<std::unique_ptr<IperfApp>> apps;
  std::vector<std::unique_ptr<SinkApp>> readers;
  std::vector<Testbed::Flow> tcp_flows;
  for (int i = 0; i < 2; ++i) {
    tcp_flows.push_back(bed.CreateFlow(TcpSocket::Config{}));
    sinks.push_back(std::make_unique<RawTcpSink>(tcp_flows.back().sender));
    apps.push_back(std::make_unique<IperfApp>(&bed.loop(), sinks.back().get()));
    readers.push_back(std::make_unique<SinkApp>(tcp_flows.back().receiver));
    apps.back()->Start();
    readers.back()->Start();
  }
  std::unique_ptr<SproutLikeFlow> sprout;
  std::unique_ptr<VerusLikeFlow> verus;
  uint64_t delivered = 0;
  const SampleSet* delays = nullptr;
  if (std::string(GetParam()) == "sprout") {
    sprout = std::make_unique<SproutLikeFlow>(&bed.loop(), &bed.path());
    sprout->Start();
  } else {
    verus = std::make_unique<VerusLikeFlow>(&bed.loop(), &bed.path());
    verus->Start();
  }
  bed.loop().RunUntil(Sec(40.0));
  if (sprout) {
    delivered = sprout->delivered_bytes();
    delays = &sprout->one_way_delays();
  } else {
    delivered = verus->delivered_bytes();
    delays = &verus->one_way_delays();
  }
  double udp_mbps =
      RateOver(static_cast<int64_t>(delivered), TimeDelta::FromSecondsInt(40)).ToMbps();
  double fair_share = 9.0 / 3.0;
  EXPECT_LT(udp_mbps, fair_share) << GetParam();
  EXPECT_GT(udp_mbps, 0.05) << GetParam();
  // Its own packets' delay stays well below the TCP flows' end-to-end delay
  // (which includes ~0.3 s of sender-side bufferbloat).
  EXPECT_LT(delays->Quantile(0.5), 0.25) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Protocols, UdpVsTcpFairnessTest, ::testing::Values("sprout", "verus"));

}  // namespace
}  // namespace element
