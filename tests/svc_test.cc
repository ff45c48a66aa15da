// Tests for the SVC layered-streaming use case (§4.4): the base layer always
// gets through; enhancement layers are shed at the TCP boundary under
// congestion and kept on a fat link.

#include <gtest/gtest.h>

#include <memory>

#include "src/apps/iperf_app.h"
#include "src/apps/svc_app.h"
#include "src/element/byte_sink.h"
#include "src/tcpsim/testbed.h"

namespace element {
namespace {

SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

struct SvcRun {
  std::unique_ptr<Testbed> bed;
  std::unique_ptr<ElementSocket> em;
  std::unique_ptr<SvcStreamer> streamer;
  std::unique_ptr<SinkApp> reader;
  Testbed::Flow flow;
};

SvcRun MakeRun(uint64_t seed, DataRate rate) {
  SvcRun run;
  PathConfig path;
  path.rate = rate;
  path.one_way_delay = TimeDelta::FromMillis(20);
  path.queue_limit_packets = 100;
  run.bed = std::make_unique<Testbed>(seed, path);
  run.flow = run.bed->CreateFlow(TcpSocket::Config{});
  ElementSocket::Options opt;
  run.em = std::make_unique<ElementSocket>(&run.bed->loop(), run.flow.sender, opt);
  run.streamer = std::make_unique<SvcStreamer>(&run.bed->loop(), run.em.get());
  run.reader = std::make_unique<SinkApp>(run.flow.receiver);
  run.streamer->Start();
  run.reader->Start();
  return run;
}

TEST(SvcTest, FatLinkDeliversAllLayers) {
  // Full ladder is ~16 Mbps; a 100 Mbps link carries everything.
  SvcRun run = MakeRun(1, DataRate::Mbps(100));
  run.bed->loop().RunUntil(Sec(20.0));
  const auto& stats = run.streamer->layer_stats();
  ASSERT_EQ(stats.size(), 4u);
  for (size_t k = 0; k < stats.size(); ++k) {
    EXPECT_GT(stats[k].sent, stats[k].enqueued * 9 / 10) << "layer " << k;
    EXPECT_LT(stats[k].shed, stats[k].enqueued / 10) << "layer " << k;
  }
}

TEST(SvcTest, TightLinkShedsTopLayersKeepsBase) {
  // ~16 Mbps offered on a 5 Mbps link: base (2 Mbps) must survive; the top
  // layer (8 Mbps) must be shed heavily.
  SvcRun run = MakeRun(2, DataRate::Mbps(5));
  run.bed->loop().RunUntil(Sec(30.0));
  const auto& stats = run.streamer->layer_stats();
  EXPECT_EQ(stats[0].shed, 0u);                      // base never shed
  EXPECT_GT(stats[0].sent, run.streamer->frames_generated() * 9 / 10);
  EXPECT_GT(stats[3].shed, stats[3].enqueued / 2);   // top layer mostly shed
  // Shedding is ordered: higher layers shed at least as much as lower ones.
  EXPECT_GE(stats[3].shed, stats[2].shed);
  EXPECT_GE(stats[2].shed, stats[1].shed);
}

TEST(SvcTest, BaseLayerLatencyStaysWithinBudget) {
  SvcRun run = MakeRun(3, DataRate::Mbps(5));
  run.bed->loop().RunUntil(Sec(30.0));
  // Shedding keeps the pipe shallow enough for the base layer to go out fast.
  EXPECT_LT(run.streamer->base_layer_send_delays().Quantile(0.9), 0.25);
}

TEST(SvcTest, AdaptsWhenBackgroundFlowsJoin) {
  SvcRun run = MakeRun(4, DataRate::Mbps(20));
  // Let it settle with full quality, then add three bulk Cubic flows at t=10s
  // (the SVC flow's fair share collapses to ~5 Mbps, under its 16 Mbps offer).
  std::vector<Testbed::Flow> bulk;
  std::vector<std::unique_ptr<RawTcpSink>> bulk_sinks;
  std::vector<std::unique_ptr<IperfApp>> bulk_apps;
  std::vector<std::unique_ptr<SinkApp>> bulk_readers;
  Timer join(&run.bed->loop(), [&] {
    for (int i = 0; i < 3; ++i) {
      bulk.push_back(run.bed->CreateFlow(TcpSocket::Config{}));
      bulk_sinks.push_back(std::make_unique<RawTcpSink>(bulk.back().sender));
      bulk_apps.push_back(std::make_unique<IperfApp>(&run.bed->loop(), bulk_sinks.back().get()));
      bulk_readers.push_back(std::make_unique<SinkApp>(bulk.back().receiver));
      bulk_apps.back()->Start();
      bulk_readers.back()->Start();
    }
  });
  join.Restart(Sec(10.0));
  run.bed->loop().RunUntil(Sec(10.0));
  uint64_t shed_before = 0;
  for (const auto& l : run.streamer->layer_stats()) {
    shed_before += l.shed;
  }
  run.bed->loop().RunUntil(Sec(40.0));
  uint64_t shed_after = 0;
  for (const auto& l : run.streamer->layer_stats()) {
    shed_after += l.shed;
  }
  // Congestion from the bulk flows forces shedding that wasn't happening
  // before, while the base layer stays fully delivered.
  EXPECT_GT(shed_after - shed_before, shed_before + 10);
  EXPECT_EQ(run.streamer->layer_stats()[0].shed, 0u);
  EXPECT_GT(run.streamer->layer_stats()[0].sent, run.streamer->frames_generated() * 8 / 10);
}

}  // namespace
}  // namespace element
