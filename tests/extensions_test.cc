// Tests for the Discussion-section (§7) extensions: the event-driven
// delay/jitter monitor, the QoS latency budget (Algorithm 3's D_thr, set
// through ElementSocket::Options::minimizer), and the bottleneck sojourn
// probe (lower-layer tracing).

#include <gtest/gtest.h>

#include <vector>

#include "src/apps/iperf_app.h"
#include "src/apps/measured_flow.h"
#include "src/element/byte_sink.h"
#include "src/element/delay_event_monitor.h"
#include "src/element/element_socket.h"
#include "src/element/interposer.h"
#include "src/netsim/pfifo_fast.h"
#include "src/tcpsim/testbed.h"
#include "src/telemetry/record.h"
#include "src/trace/ground_truth.h"
#include "src/trace/sojourn_sink.h"

namespace element {
namespace {

SimTime Ms(int64_t ms) { return SimTime::FromNanos(ms * 1'000'000); }
SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

// A sender-side estimate record, as SenderDelayEstimator emits it.
telemetry::TraceRecord Estimate(int64_t t_ms, int64_t delay_ms) {
  return telemetry::TraceRecord::Delay(0, Ms(t_ms), TimeDelta::FromMillis(delay_ms).ToSeconds(),
                                       0.0, 0.0, telemetry::kFlagEstimate);
}

TEST(DelayEventMonitorTest, FiresOnceAboveThresholdWithHysteresis) {
  DelayEventMonitor::Thresholds thr;
  thr.delay_threshold = TimeDelta::FromMillis(100);
  std::vector<DelayEventMonitor::Event> events;
  DelayEventMonitor monitor(thr, [&](const DelayEventMonitor::Event& e) { events.push_back(e); });

  monitor.OnRecord(Estimate(0, 50));
  monitor.OnRecord(Estimate(10, 150));  // exceeds -> event
  monitor.OnRecord(Estimate(20, 160));  // still above -> no repeat
  monitor.OnRecord(Estimate(30, 90));   // between 80 and 100: not re-armed yet
  monitor.OnRecord(Estimate(40, 70));   // below 0.8*thr -> recovered event
  monitor.OnRecord(Estimate(50, 150));  // exceeds again -> second event
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

  monitor.OnRecord(Estimate(0, 150));  // exceeds -> the one and only event
  for (int i = 1; i <= 50; ++i) {
    monitor.OnRecord(Estimate(i * 10, 150 + (i % 7) * 20));  // stays above
  }
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, DelayEventMonitor::Event::Kind::kDelayExceeded);

  // Dead band: below the threshold but above the re-arm point. Neither a
  // repeat excursion nor a recovery may fire here.
  for (int i = 51; i <= 60; ++i) {
    monitor.OnRecord(Estimate(i * 10, (i % 2 == 0) ? 85 : 99));
  }
  ASSERT_EQ(events.size(), 1u);

  // Drop below 0.8*thr: exactly one recovery, repeated low values stay quiet.
  for (int i = 61; i <= 70; ++i) {
    monitor.OnRecord(Estimate(i * 10, 40));
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
    monitor.OnRecord(Estimate(i * 10, 50));
  }
  EXPECT_EQ(jitter_events, 0);
  // ...then a 100 ms spike: |150 - ~50| > 30.
  monitor.OnRecord(Estimate(300, 150));
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

// The monitor and Algorithm 3 are both per-flow sinks on the sender
// estimator: attaching the monitor must not cut the controller's feed.
TEST(DelayEventMonitorTest, AttachingKeepsMinimizerFed) {
  PathConfig path;
  Testbed bed(11, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  ElementSocket em(&bed.loop(), flow.sender, ElementSocket::Options{});
  ASSERT_NE(em.minimizer(), nullptr);

  DelayEventMonitor::Thresholds thr;
  thr.delay_threshold = TimeDelta::FromMillis(20);
  int fired = 0;
  DelayEventMonitor monitor(thr, [&](const DelayEventMonitor::Event&) { ++fired; });
  monitor.Attach(&em.sender_estimator());

  ElementSink sink(&em);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(20.0));
  EXPECT_GT(fired, 0);
  EXPECT_GT(em.minimizer()->starget_bytes(), 0u);
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
    opt.minimizer.delay_threshold = budget;
    ElementSocket em(&bed.loop(), flow.sender, opt);
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

TEST(SojournSinkTest, RecordsSojournTimes) {
  telemetry::TelemetrySpine spine;
  SojournSink sink(/*source=*/3);
  SojournSink other_hop(/*source=*/4);
  spine.AttachSink(&sink);
  spine.AttachSink(&other_hop);
  PfifoFast q(100);
  q.BindTelemetry(&spine, 3);
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
  ASSERT_EQ(sink.series().count(), 2u);
  EXPECT_NEAR(sink.series().points()[0].v, 0.005, 1e-9);
  EXPECT_NEAR(sink.series().points()[1].v, 0.012, 1e-9);
  EXPECT_EQ(sink.series().points()[1].t, Ms(12));
  EXPECT_TRUE(other_hop.series().empty());
  EXPECT_EQ(q.stats().dequeued_packets, 2u);
}

TEST(SojournSinkTest, SojournMatchesNetworkQueueingOnLiveFlow) {
  PathConfig path;
  Testbed bed(19, path);
  SojournSink bottleneck(/*source=*/0);
  bed.spine().AttachSink(&bottleneck);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  MeasuredFlow measured(&bed.loop(), flow.sender, flow.receiver, MeasuredFlow::Options{});
  measured.Start();
  bed.loop().RunUntil(Sec(20.0));
  // Lower-layer decomposition: mean network delay ~= propagation (25 ms) +
  // serialization + mean bottleneck sojourn.
  double sojourn = bottleneck.series().Values().mean();
  double network = measured.tracer().network_delay().mean();
  EXPECT_NEAR(network, 0.025 + 0.0012 + sojourn, 0.01);
  EXPECT_GT(sojourn, 0.005);  // Cubic keeps a standing queue
}

}  // namespace
}  // namespace element
