// Telemetry spine tests: trace rings, the metric registry's merge contract,
// spine/FlowTelemetry recording semantics, and the spine on a Testbed run.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/measured_flow.h"
#include "src/common/stats.h"
#include "src/tcpsim/testbed.h"
#include "src/telemetry/metric_registry.h"
#include "src/telemetry/spine.h"
#include "src/telemetry/trace_ring.h"

namespace element {
namespace telemetry {
namespace {

TEST(TraceRingTest, OverwritesOldestAndSnapshotsInOrder) {
  TraceRing ring(7);
  EXPECT_EQ(ring.capacity(), 7u);
  for (uint64_t i = 0; i < 11; ++i) {
    ring.Push(TraceRecord::Range(RecordKind::kAppWrite, /*flow_id=*/1,
                                 SimTime::FromNanos(static_cast<int64_t>(i)), i, i + 1));
  }
  EXPECT_EQ(ring.total_pushed(), 11u);
  EXPECT_EQ(ring.size(), 7u);
  EXPECT_EQ(ring.overwritten(), 4u);
  std::vector<TraceRecord> snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 7u);
  // Oldest-first window: records 4..10 survive.
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].u.range.begin, i + 4);
  }
}

TEST(MetricRegistryTest, HandlesAreStableAndMergeFolds) {
  MetricRegistry a;
  uint64_t* drops = a.Counter("qdisc.drops");
  *drops += 3;
  a.Hist("delay_s")->Add(0.5);
  a.Stats("goodput")->Add(8.0);

  MetricRegistry b;
  *b.Counter("qdisc.drops") += 4;
  b.Hist("delay_s")->Add(1.5);
  b.Stats("goodput")->Add(10.0);
  *b.Counter("only_in_b") += 1;

  a.Merge(b);
  EXPECT_EQ(a.CounterValue("qdisc.drops"), 7u);  // counters add
  EXPECT_EQ(a.CounterValue("only_in_b"), 1u);    // absent = created
  EXPECT_EQ(a.HistOrEmpty("delay_s").count(), 2u);
  EXPECT_EQ(a.StatsOrEmpty("goodput").count(), 2u);
  EXPECT_DOUBLE_EQ(a.StatsOrEmpty("goodput").mean(), 9.0);
  // Reads of absent metrics do not create them.
  EXPECT_EQ(a.CounterValue("never_written"), 0u);
  EXPECT_EQ(a.FindHist("never_written"), nullptr);
  EXPECT_TRUE(a.HistOrEmpty("never_written").empty());
}

// Collects records for spine/flow dispatch assertions.
struct CollectSink : RecordSink {
  std::vector<TraceRecord> records;
  void OnRecord(const TraceRecord& r) override { records.push_back(r); }
};

TEST(SpineTest, RecordingReflectsConsumersAndDispatchRoutes) {
  TelemetrySpine spine;
  EXPECT_FALSE(spine.recording());

  FlowTelemetry flow;
  flow.Bind(&spine, /*flow_id=*/5);
  EXPECT_FALSE(flow.recording());  // bound but no consumers anywhere

  // A run-wide sink flips every bound producer to recording.
  CollectSink run_sink;
  spine.AttachSink(&run_sink);
  EXPECT_TRUE(spine.recording());
  EXPECT_TRUE(flow.recording());

  TraceRing* ring = spine.EnsureRing(5, 8);
  flow.Emit(TraceRecord::Range(RecordKind::kAppWrite, 5, SimTime::Zero(), 0, 100));
  spine.Dispatch(TraceRecord::Range(RecordKind::kQdiscEnqueue, 5,
                                    SimTime::FromNanos(1), 0, 0));
  // Another flow's record reaches the sink but not flow 5's ring.
  spine.Dispatch(TraceRecord::Range(RecordKind::kQdiscEnqueue, 6,
                                    SimTime::FromNanos(2), 0, 0));

  EXPECT_EQ(run_sink.records.size(), 3u);
  EXPECT_EQ(ring->size(), 2u);
  EXPECT_EQ(spine.dispatched(), 3u);

  TelemetrySpine ring_only;
  ring_only.EnsureRing(5, 8);
  EXPECT_TRUE(ring_only.recording());  // a ring alone counts as a consumer
}

TEST(SpineTest, PerFlowSinksSeeOnlyTheirProducer) {
  TelemetrySpine spine;
  FlowTelemetry flow_a;
  FlowTelemetry flow_b;
  CollectSink sink_a;
  flow_a.AttachSink(&sink_a);  // before Bind: the order must not matter
  flow_a.Bind(&spine, 1);
  flow_b.Bind(&spine, 2);
  EXPECT_FALSE(spine.recording());  // a per-flow sink is not a spine consumer
  EXPECT_TRUE(flow_a.recording());
  EXPECT_FALSE(flow_b.recording());

  flow_a.Emit(TraceRecord::Range(RecordKind::kAppWrite, 1, SimTime::Zero(), 0, 10));
  ASSERT_EQ(sink_a.records.size(), 1u);
  EXPECT_EQ(sink_a.records[0].flow_id, 1u);
  EXPECT_EQ(spine.dispatched(), 0u);  // nothing crossed the spine

  // A ring turns the spine on, and with it every bound producer; flow_b's
  // record reaches the ring and the spine but not flow_a's per-flow sink.
  TraceRing* ring = spine.EnsureRing(2, 4);
  EXPECT_TRUE(spine.recording());
  EXPECT_TRUE(flow_b.recording());
  flow_b.Emit(TraceRecord::Range(RecordKind::kAppWrite, 2, SimTime::Zero(), 20, 30));
  EXPECT_EQ(ring->size(), 1u);
  EXPECT_EQ(spine.dispatched(), 1u);
  EXPECT_EQ(sink_a.records.size(), 1u);
}

TEST(SpineTest, UnboundFlowTelemetryStillFeedsLocalSinks) {
  FlowTelemetry flow;  // never bound to a spine (unit-test style usage)
  EXPECT_FALSE(flow.recording());
  CollectSink sink;
  flow.AttachSink(&sink);
  EXPECT_TRUE(flow.recording());
  flow.Emit(TraceRecord::Range(RecordKind::kAppRead, 9, SimTime::Zero(), 0, 5));
  ASSERT_EQ(sink.records.size(), 1u);
  EXPECT_EQ(sink.records[0].kind, RecordKind::kAppRead);
}

// A ring on a Testbed's spine, during a MeasuredFlow run, holds exactly the
// flow's last records as a run-wide sink saw them, oldest first.
TEST(SpineRunTest, TestbedRingHoldsFlowsLastRecords) {
  Testbed bed(7, PathConfig{});
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  TraceRing* ring = bed.spine().EnsureRing(flow.flow_id, 64);
  CollectSink all;
  bed.spine().AttachSink(&all);
  MeasuredFlow measured(&bed.loop(), flow.sender, flow.receiver, MeasuredFlow::Options{});
  measured.Start();
  bed.loop().RunUntil(SimTime::FromNanos(2'000'000'000));

  std::vector<TraceRecord> mine;
  for (const TraceRecord& r : all.records) {
    if (r.flow_id == flow.flow_id) {
      mine.push_back(r);
    }
  }
  ASSERT_GT(mine.size(), 64u);
  EXPECT_EQ(ring->total_pushed(), mine.size());
  std::vector<TraceRecord> snap = ring->Snapshot();
  ASSERT_EQ(snap.size(), 64u);
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(std::memcmp(&snap[i], &mine[mine.size() - 64 + i], sizeof(TraceRecord)), 0) << i;
    if (i > 0) {
      EXPECT_LE(snap[i - 1].t, snap[i].t);
    }
  }
}

// Per-flow tracers and estimators record without turning the spine on.
TEST(SpineRunTest, PerFlowTracersDispatchNothing) {
  Testbed bed(7, PathConfig{});
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  MeasuredFlow::Options options;
  options.element = MeasuredFlow::Element::kMeasured;
  MeasuredFlow measured(&bed.loop(), flow.sender, flow.receiver, options);
  measured.Start();
  bed.loop().RunUntil(SimTime::FromNanos(2'000'000'000));
  EXPECT_GT(measured.tracer().sender_delay().count(), 0u);
  EXPECT_FALSE(bed.spine().recording());
  EXPECT_EQ(bed.spine().dispatched(), 0u);
}

}  // namespace
}  // namespace telemetry
}  // namespace element
