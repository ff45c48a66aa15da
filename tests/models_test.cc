// Statistical and behavioural tests for the link models, the VR/iperf app
// details not covered elsewhere, and UDP protocol edge cases.

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "src/apps/iperf_app.h"
#include "src/apps/vr_app.h"
#include "src/element/byte_sink.h"
#include "src/netsim/link_model.h"
#include "src/tcpsim/testbed.h"
#include "src/udpproto/low_latency_protocols.h"

namespace element {
namespace {

SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

TEST(CableModelTest, JitterIsSubMillisecondMostly) {
  CableLinkModel model(DataRate::Mbps(100), TimeDelta::FromMillis(8), Rng(1));
  Rng rng(2);
  SampleSet jitter;
  for (int i = 0; i < 20000; ++i) {
    jitter.Add(model.JitterFor(rng).ToSeconds());
  }
  EXPECT_NEAR(jitter.mean(), 0.0004, 0.0001);  // exponential, 0.4 ms mean
  EXPECT_LT(jitter.Quantile(0.9), 0.0012);
}

TEST(CableModelTest, WireLossIsRare) {
  CableLinkModel model(DataRate::Mbps(100), TimeDelta::FromMillis(8), Rng(1));
  Rng rng(3);
  int drops = 0;
  for (int i = 0; i < 200000; ++i) {
    drops += model.DropOnWire(rng);
  }
  EXPECT_NEAR(drops / 200000.0, 0.00005, 0.00005);
}

TEST(WifiModelTest, LossIsBurstyNotUniform) {
  WifiLinkModel model(Rng(5));
  Rng rng(6);
  // Walk through time; collect per-100ms-window drop counts.
  std::vector<int> window_drops;
  for (int w = 0; w < 400; ++w) {
    SimTime t = SimTime::FromNanos(static_cast<int64_t>(w) * 100'000'000);
    model.RateAt(t);  // advances the Markov state
    int drops = 0;
    for (int i = 0; i < 100; ++i) {
      drops += model.DropOnWire(rng);
    }
    window_drops.push_back(drops);
  }
  // Bursty: some windows see many drops, most see none.
  int zero_windows = 0;
  int heavy_windows = 0;
  for (int d : window_drops) {
    zero_windows += (d == 0);
    heavy_windows += (d >= 1);
  }
  EXPECT_GT(zero_windows, 200);  // mostly clean
  EXPECT_GT(heavy_windows, 5);   // but fade bursts exist
}

TEST(LteModelTest, RateIsSlowlyVarying) {
  LteLinkModel model(Rng(7));
  // Within one dwell period the rate is constant; across periods it moves.
  double r1 = model.RateAt(SimTime::FromNanos(0)).ToMbps();
  double r2 = model.RateAt(SimTime::FromNanos(50'000'000)).ToMbps();  // +50 ms
  EXPECT_DOUBLE_EQ(r1, r2);
  SampleSet rates;
  for (int s = 0; s < 100; ++s) {
    rates.Add(model.RateAt(SimTime::FromNanos(static_cast<int64_t>(s) * 1'000'000'000)).ToMbps());
  }
  EXPECT_GT(rates.Stdev(), 0.5);
}

TEST(IperfAppTest, CountsOfferedBytes) {
  PathConfig path;
  Testbed bed(11, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(10.0));
  EXPECT_GT(flow.sender->app_bytes_written(), 5'000'000u);
}

TEST(IperfAppTest, StartIsIdempotent) {
  // A second Start() must not add a second pump: the run writes and sends
  // exactly what a single Start() does.
  auto run = [](int starts) {
    PathConfig path;
    Testbed bed(12, path);
    Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
    RawTcpSink sink(flow.sender);
    IperfApp app(&bed.loop(), &sink);
    SinkApp reader(flow.receiver);
    for (int i = 0; i < starts; ++i) {
      app.Start();
    }
    reader.Start();
    bed.loop().RunUntil(Sec(5.0));
    return std::make_pair(flow.sender->app_bytes_written(), bed.loop().processed_events());
  };
  EXPECT_EQ(run(2), run(1));
}

TEST(VrServerTest, LevelsStayWithinLadder) {
  PathConfig path;
  path.rate = DataRate::Mbps(30);
  Testbed bed(13, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  ElementSocket::Options opt;
  ElementSocket em(&bed.loop(), flow.sender, opt);
  VrServer server(&bed.loop(), flow.sender, &em);
  VrClient client(&bed.loop(), flow.receiver, &server);
  server.Start();
  client.Start();
  bed.loop().RunUntil(Sec(15.0));
  for (const VrFrameRecord& f : server.frames()) {
    EXPECT_GE(f.level, 0);
    EXPECT_LT(f.level, static_cast<int>(VrServer::kResolutionLadder.size()));
    if (!f.dropped) {
      EXPECT_EQ(f.bytes, VrServer::kResolutionLadder[static_cast<size_t>(f.level)]);
    }
  }
}

TEST(VrServerTest, FrameRecordsMonotoneStreamPositions) {
  PathConfig path;
  path.rate = DataRate::Mbps(200);  // room for the top level's 57.6 Mbps
  Testbed bed(14, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  VrServer server(&bed.loop(), flow.sender, nullptr);
  VrClient client(&bed.loop(), flow.receiver, &server);
  server.Start();
  client.Start();
  bed.loop().RunUntil(Sec(10.0));
  uint64_t prev_end = 0;
  for (const VrFrameRecord& f : server.frames()) {
    if (f.fully_queued) {
      EXPECT_GT(f.end_seq, prev_end);
      prev_end = f.end_seq;
    }
  }
  EXPECT_GT(client.frames_received(), 500u);
}

TEST(SproutTest, BacksOffWhenQueueingRises) {
  // Squeeze the link after 10 s: Sprout's delay-bounded probing must shrink
  // its rate rather than sit on a standing queue.
  PathConfig path;
  path.steps = {{TimeDelta::FromSecondsInt(10), DataRate::Mbps(10)},
                {TimeDelta::FromSecondsInt(30), DataRate::Mbps(2)}};
  Testbed bed(15, path);
  SproutLikeFlow flow(&bed.loop(), &bed.path());
  flow.Start();
  bed.loop().RunUntil(Sec(10.0));
  uint64_t at_10 = flow.delivered_bytes();
  bed.loop().RunUntil(Sec(30.0));
  uint64_t at_30 = flow.delivered_bytes();
  double late_rate = (at_30 - at_10) * 8e-6 / 20.0;
  EXPECT_LT(late_rate, 2.2);  // adapted under the 2 Mbps cap
  EXPECT_GT(late_rate, 0.3);  // but kept flowing
  // Delay stays bounded through the squeeze.
  EXPECT_LT(flow.one_way_delays().Quantile(0.9), 0.25);
}

TEST(VerusTest, FeedbackLossDoesNotDeadlock) {
  // Heavy loss hits data AND feedback; the window bookkeeping (highest-seq
  // based) must keep the flow moving.
  PathConfig path;
  path.rate = DataRate::Mbps(10);
  path.loss_probability = 0.1;
  Testbed bed(16, path);
  VerusLikeFlow flow(&bed.loop(), &bed.path());
  flow.Start();
  bed.loop().RunUntil(Sec(30.0));
  EXPECT_GT(flow.delivered_bytes(), 500'000u);
}

}  // namespace
}  // namespace element
