// Tests for the Discussion-section (§7) extensions: the event-driven
// delay/jitter monitor, pluggable rate controllers, the QoS latency-budget
// hook, and the instrumented-qdisc lower-layer probe.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/apps/iperf_app.h"
#include "src/element/byte_sink.h"
#include "src/element/delay_event_monitor.h"
#include "src/element/element_socket.h"
#include "src/element/interposer.h"
#include "src/element/rate_controller.h"
#include "src/netsim/instrumented_qdisc.h"
#include "src/netsim/pfifo_fast.h"
#include "src/tcpsim/testbed.h"
#include "src/trace/ground_truth.h"

namespace element {
namespace {

SimTime Ms(int64_t ms) { return SimTime::FromNanos(ms * 1'000'000); }
SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

DelayReport Report(int64_t t_ms, int64_t delay_ms) {
  DelayReport r;
  r.t = Ms(t_ms);
  r.delay = TimeDelta::FromMillis(delay_ms);
  return r;
}

TEST(DelayEventMonitorTest, FiresOnceAboveThresholdWithHysteresis) {
  DelayEventMonitor::Thresholds thr;
  thr.delay_threshold = TimeDelta::FromMillis(100);
  std::vector<DelayEventMonitor::Event> events;
  DelayEventMonitor monitor(thr, [&](const DelayEventMonitor::Event& e) { events.push_back(e); });

  monitor.OnReport(Report(0, 50));
  monitor.OnReport(Report(10, 150));  // exceeds -> event
  monitor.OnReport(Report(20, 160));  // still above -> no repeat
  monitor.OnReport(Report(30, 90));   // between 80 and 100: not re-armed yet
  monitor.OnReport(Report(40, 70));   // below 0.8*thr -> recovered event
  monitor.OnReport(Report(50, 150));  // exceeds again -> second event
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, DelayEventMonitor::Event::Kind::kDelayExceeded);
  EXPECT_EQ(events[1].kind, DelayEventMonitor::Event::Kind::kDelayRecovered);
  EXPECT_EQ(events[2].kind, DelayEventMonitor::Event::Kind::kDelayExceeded);
  EXPECT_EQ(monitor.delay_events(), 2u);
}

// Regression coverage for the hysteresis state machine: one sustained
// excursion must produce exactly one kDelayExceeded no matter how many
// above-threshold reports arrive, oscillation inside the dead band
// [rearm_fraction*thr, thr) must produce nothing, and the eventual recovery
// fires kDelayRecovered exactly once.
TEST(DelayEventMonitorTest, SustainedExcursionDoesNotRefire) {
  DelayEventMonitor::Thresholds thr;
  thr.delay_threshold = TimeDelta::FromMillis(100);
  std::vector<DelayEventMonitor::Event> events;
  DelayEventMonitor monitor(thr, [&](const DelayEventMonitor::Event& e) { events.push_back(e); });

  monitor.OnReport(Report(0, 150));  // exceeds -> the one and only event
  for (int i = 1; i <= 50; ++i) {
    monitor.OnReport(Report(i * 10, 150 + (i % 7) * 20));  // stays above
  }
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, DelayEventMonitor::Event::Kind::kDelayExceeded);

  // Dead band: below the threshold but above the re-arm point. Neither a
  // repeat excursion nor a recovery may fire here.
  for (int i = 51; i <= 60; ++i) {
    monitor.OnReport(Report(i * 10, (i % 2 == 0) ? 85 : 99));
  }
  ASSERT_EQ(events.size(), 1u);

  // Drop below 0.8*thr: exactly one recovery, repeated low values stay quiet.
  for (int i = 61; i <= 70; ++i) {
    monitor.OnReport(Report(i * 10, 40));
  }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, DelayEventMonitor::Event::Kind::kDelayRecovered);
  EXPECT_EQ(monitor.delay_events(), 1u);
  EXPECT_EQ(monitor.delay_recoveries(), 1u);

  // The end-of-run registry mirror carries the same counts.
  telemetry::MetricRegistry registry;
  monitor.PublishMetrics(&registry, "monitor.");
  EXPECT_EQ(registry.CounterValue("monitor.delay_events"), 1u);
  EXPECT_EQ(registry.CounterValue("monitor.delay_recoveries"), 1u);
  EXPECT_EQ(registry.CounterValue("monitor.jitter_events"), 0u);
}

TEST(DelayEventMonitorTest, JitterExcursionDetected) {
  DelayEventMonitor::Thresholds thr;
  thr.jitter_threshold = TimeDelta::FromMillis(30);
  int jitter_events = 0;
  DelayEventMonitor monitor(thr, [&](const DelayEventMonitor::Event& e) {
    if (e.kind == DelayEventMonitor::Event::Kind::kJitterExceeded) {
      ++jitter_events;
    }
  });
  // Stable around 50 ms...
  for (int i = 0; i < 20; ++i) {
    monitor.OnReport(Report(i * 10, 50));
  }
  EXPECT_EQ(jitter_events, 0);
  // ...then a 100 ms spike: |150 - ~50| > 30.
  monitor.OnReport(Report(300, 150));
  EXPECT_EQ(jitter_events, 1);
}

TEST(DelayEventMonitorTest, AttachesToLiveEstimator) {
  PathConfig path;
  Testbed bed(11, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  ElementSocket::Options opt;
  opt.enable_latency_minimization = false;
  ElementSocket em(&bed.loop(), flow.sender, opt);

  DelayEventMonitor::Thresholds thr;
  thr.delay_threshold = TimeDelta::FromMillis(50);
  int fired = 0;
  DelayEventMonitor monitor(thr, [&](const DelayEventMonitor::Event&) { ++fired; });
  monitor.Attach(&em.sender_estimator());

  ElementSink sink(&em);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(20.0));
  // An unminimized Cubic flow on this path exceeds 50 ms of send-buffer delay.
  EXPECT_GT(fired, 0);
  EXPECT_GT(monitor.ewma_delay(), TimeDelta::FromMillis(20));
}

TEST(FixedRateControllerTest, TokenBucketPacing) {
  EventLoop loop;
  FixedRateController ctl(&loop, DataRate::Mbps(8), /*burst=*/10000);  // 1 MB/s
  EXPECT_TRUE(ctl.MaySendNow());
  ctl.OnBytesAdmitted(10000, loop.now());
  EXPECT_FALSE(ctl.MaySendNow());
  TimeDelta retry = ctl.NextRetryDelay();
  EXPECT_GT(retry, TimeDelta::Zero());
  // After 5 ms, 5000 bytes of tokens have accrued.
  loop.ScheduleAfter(TimeDelta::FromMillis(5), [] {});
  loop.Run();
  EXPECT_TRUE(ctl.MaySendNow());
  ctl.OnBytesAdmitted(5000, loop.now());
  EXPECT_FALSE(ctl.MaySendNow());
}

TEST(CustomControllerTest, ElementSocketUsesFactory) {
  PathConfig path;
  path.rate = DataRate::Mbps(50);
  Testbed bed(13, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  ElementSocket::Options opt;
  opt.controller_factory = [](EventLoop* loop, TcpSocket*) {
    return std::make_unique<FixedRateController>(loop, DataRate::Mbps(4));
  };
  ElementSocket em(&bed.loop(), flow.sender, opt);
  EXPECT_EQ(em.controller()->name(), "fixed_rate");
  EXPECT_EQ(em.minimizer(), nullptr);  // not Algorithm 3

  ElementSink sink(&em);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(20.0));
  // The custom controller caps the app at ~4 Mbps on a 50 Mbps link.
  double goodput = RateOver(static_cast<int64_t>(flow.receiver->app_bytes_read()),
                            TimeDelta::FromSecondsInt(20))
                       .ToMbps();
  EXPECT_NEAR(goodput, 4.0, 0.8);
}

TEST(LatencyBudgetTest, BudgetShiftsEquilibriumDelay) {
  auto run = [](TimeDelta budget) {
    PathConfig path;
    Testbed bed(17, path);
    Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
    GroundTruthTracer::Config tcfg;
    tcfg.record_from = Sec(5.0);
    GroundTruthTracer tracer(tcfg);
    flow.sender->telemetry().AttachSink(&tracer);
    flow.receiver->telemetry().AttachSink(&tracer);
    ElementSocket::Options opt;
    ElementSocket em(&bed.loop(), flow.sender, opt);
    em.SetLatencyBudget(budget);
    ElementSink sink(&em);
    IperfApp app(&bed.loop(), &sink);
    SinkApp reader(flow.receiver);
    app.Start();
    reader.Start();
    bed.loop().RunUntil(Sec(30.0));
    return tracer.sender_delay().mean();
  };
  double tight = run(TimeDelta::FromMillis(10));
  double loose = run(TimeDelta::FromMillis(80));
  EXPECT_LT(tight, loose);
  EXPECT_LT(tight, 0.05);
}

TEST(InstrumentedQdiscTest, RecordsSojournTimes) {
  InstrumentedQdisc q(std::make_unique<PfifoFast>(100));
  Packet p;
  p.flow_id = 1;
  p.size_bytes = 1500;
  q.Enqueue(std::move(p), Ms(0));
  Packet p2;
  p2.flow_id = 2;
  p2.size_bytes = 1500;
  q.Enqueue(std::move(p2), Ms(0));
  q.Dequeue(Ms(5));
  q.Dequeue(Ms(12));
  ASSERT_EQ(q.sojourn_samples().count(), 2u);
  EXPECT_NEAR(q.sojourn_samples().samples()[0], 0.005, 1e-9);
  EXPECT_NEAR(q.sojourn_samples().samples()[1], 0.012, 1e-9);
  EXPECT_EQ(q.name(), "pfifo_fast+probe");
  EXPECT_EQ(q.stats().dequeued_packets, 2u);
}

TEST(InstrumentedQdiscTest, SojournMatchesNetworkQueueingOnLiveFlow) {
  PathConfig path;
  path.instrument_bottleneck = true;
  Testbed bed(19, path);
  ASSERT_NE(bed.bottleneck_probe(), nullptr);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  GroundTruthTracer tracer;
  flow.sender->telemetry().AttachSink(&tracer);
  flow.receiver->telemetry().AttachSink(&tracer);
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(20.0));
  // Lower-layer decomposition: mean network delay ~= propagation (25 ms) +
  // serialization + mean bottleneck sojourn.
  double sojourn = bed.bottleneck_probe()->sojourn_samples().mean();
  double network = tracer.network_delay().mean();
  EXPECT_NEAR(network, 0.025 + 0.0012 + sojourn, 0.01);
  EXPECT_GT(sojourn, 0.005);  // Cubic keeps a standing queue
}

}  // namespace
}  // namespace element
