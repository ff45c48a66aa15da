// Tests for bandwidth traces (CSV parsing, synthetic cellular traces, TCP
// over a replayed trace) and the path-delay estimator. How a trace's
// schedule rates the link is checked in link_test.cc.

#include <gtest/gtest.h>

#include <memory>

#include "src/apps/iperf_app.h"
#include "src/element/byte_sink.h"
#include "src/element/element_socket.h"
#include "src/netsim/trace_link.h"
#include "src/tcpsim/testbed.h"

namespace element {
namespace {

SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

TEST(TraceParseTest, ParsesCsvWithHeaderAndComments) {
  std::string csv =
      "t_seconds,mbps\n"
      "# a comment\n"
      "0,10\n"
      "2.5,25\n"
      "5,5\n";
  auto trace = ParseTraceCsv(csv);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].at.nanos(), 0);
  EXPECT_DOUBLE_EQ(trace[1].rate.ToMbps(), 25.0);
  EXPECT_EQ(trace[2].at.nanos(), 5'000'000'000);
}

TEST(TraceParseTest, RejectsMalformedAndUnorderedInput) {
  EXPECT_TRUE(ParseTraceCsv("0,10\nbogus line\n").empty());
  EXPECT_TRUE(ParseTraceCsv("5,10\n1,20\n").empty());
  EXPECT_TRUE(ParseTraceCsv("no commas here\n").empty());
  EXPECT_TRUE(ParseTraceCsv("0,10\n1e300,10\n").empty());
  EXPECT_TRUE(ParseTraceCsv("0,10\nnan,10\n").empty());
  EXPECT_TRUE(ParseTraceCsv("-5,10\n").empty());
  EXPECT_TRUE(ParseTraceCsv("0,-5\n").empty());
  EXPECT_TRUE(ParseTraceCsv("0,inf\n").empty());
  EXPECT_TRUE(ParseTraceCsv("0,10abc\n").empty());
}

TEST(TraceLinkTest, SynthesizedCellularTraceIsBoundedAndVaries) {
  Rng rng(42);
  auto trace = SynthesizeCellularTrace(&rng, DataRate::Mbps(20), Sec(60.0) - SimTime::Zero());
  ASSERT_GT(trace.size(), 500u);
  double lo = 1e18;
  double hi = 0;
  for (const TracePoint& p : trace) {
    lo = std::min(lo, p.rate.ToMbps());
    hi = std::max(hi, p.rate.ToMbps());
  }
  // Clamped to ~exp(+/-1.4) of the mean.
  EXPECT_GT(lo, 20.0 * 0.2);
  EXPECT_LT(hi, 20.0 * 4.5);
  EXPECT_GT(hi / lo, 1.5);  // it actually varies
}

TEST(TraceLinkTest, TcpRidesAReplayedTrace) {
  // Drive a full TCP flow over a synthesized cellular trace.
  Rng trace_rng(8);
  PathConfig path;
  path.queue_limit_packets = 200;
  path.steps = ScheduleFromTrace(
      SynthesizeCellularTrace(&trace_rng, DataRate::Mbps(15), Sec(60.0) - SimTime::Zero()));
  Testbed bed(7, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(30.0));
  double goodput = RateOver(static_cast<int64_t>(flow.receiver->app_bytes_read()),
                            TimeDelta::FromSecondsInt(30))
                       .ToMbps();
  // TCP extracts a decent share of a ~15 Mbps varying link.
  EXPECT_GT(goodput, 6.0);
  EXPECT_LT(goodput, 16.0);
}

// Steps replace the rate of a fixed link only; an empty trace has no schedule.
TEST(TraceLinkDeathTest, StepsNeedAFixedLinkAndATrace) {
  PathConfig path = LteProfile();
  path.steps = ScheduleFromTrace(ParseTraceCsv("0,10\n1,20\n"));
  EXPECT_DEATH(Testbed(1, path), "PathConfig::steps needs LinkType::kFixed");
  EXPECT_DEATH(ScheduleFromTrace({}), "an empty trace has no schedule");
}

// Only a fixed link draws wire losses; cable, WiFi and LTE would ignore them.
TEST(TestbedDeathTest, LossNeedsAFixedLink) {
  PathConfig path = LteProfile();
  path.loss_probability = 0.2;
  EXPECT_DEATH(Testbed(1, path), "PathConfig::loss_probability needs LinkType::kFixed");
}

TEST(PathDelayEstimatorTest, DecomposesPropagationAndQueueing) {
  PathDelayEstimator est;
  TcpInfoData info;
  info.tcpi_rtt_us = 50000;
  info.tcpi_min_rtt_us = 50000;
  est.OnTcpInfoSample(info);
  EXPECT_EQ(est.base_rtt(), TimeDelta::FromMillis(50));
  EXPECT_EQ(est.queueing(), TimeDelta::Zero());
  EXPECT_EQ(est.one_way_network_delay(), TimeDelta::FromMillis(25));
  // Queue builds: srtt rises, base stays.
  info.tcpi_rtt_us = 130000;
  est.OnTcpInfoSample(info);
  EXPECT_EQ(est.base_rtt(), TimeDelta::FromMillis(50));
  EXPECT_EQ(est.queueing(), TimeDelta::FromMillis(80));
}

TEST(PathDelayEstimatorTest, LiveFlowMatchesConfiguredPath) {
  PathConfig path;  // 10 Mbps / 25 ms OWD
  Testbed bed(9, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  ElementSocket::Options opt;
  opt.enable_latency_minimization = false;
  ElementSocket em(&bed.loop(), flow.sender, opt);
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(20.0));
  // Base RTT ~= 2 * 25 ms + serialization; queueing positive under Cubic.
  EXPECT_NEAR(em.path_estimator().base_rtt().ToSeconds() * 1e3, 51.5, 3.0);
  EXPECT_GT(em.path_estimator().queueing().ToSeconds() * 1e3, 10.0);
}

}  // namespace
}  // namespace element
