// Tests for the Discussion-section (§7) extensions: a second per-flow sink
// beside Algorithm 3's controller, the QoS latency budget (Algorithm 3's
// D_thr, set through ElementSocket::Options::minimizer), and the bottleneck
// sojourn probe (lower-layer tracing).

#include <gtest/gtest.h>

#include "src/apps/iperf_app.h"
#include "src/apps/measured_flow.h"
#include "src/element/byte_sink.h"
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

// Counts the records a per-flow sink receives.
class CountingSink : public telemetry::RecordSink {
 public:
  void OnRecord(const telemetry::TraceRecord&) override { ++count; }
  int count = 0;
};

// Algorithm 3's controller is a per-flow sink on the sender estimator: a
// second sink attached beside it must not cut the controller's feed.
TEST(PerFlowSinkTest, AttachingKeepsMinimizerFed) {
  PathConfig path;
  Testbed bed(11, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  ElementSocket em(&bed.loop(), flow.sender, ElementSocket::Options{});
  ASSERT_NE(em.minimizer(), nullptr);

  CountingSink counter;
  em.sender_estimator().telemetry().AttachSink(&counter);

  ElementSink sink(&em);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(20.0));
  EXPECT_GT(counter.count, 0);
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
