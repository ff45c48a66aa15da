// Tests of the benchmark's own arithmetic and of its seed argument.

#include <vector>

#include <gtest/gtest.h>

#include "perfbench/bench_math.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) {
    v.push_back(static_cast<double>(i));
  }
  return v;
}

TEST(PercentileRule, P99NeedsAThousandSamples) {
  EXPECT_DOUBLE_EQ(SupportedQuantile(1000, 0.99), 0.99);
  EXPECT_DOUBLE_EQ(SupportedQuantile(5000, 0.99), 0.99);
  // 500 samples leave ten beyond the 98th percentile, not the 99th.
  EXPECT_DOUBLE_EQ(SupportedQuantile(500, 0.99), 0.98);
  EXPECT_DOUBLE_EQ(SupportedQuantile(100, 0.99), 0.9);
}

TEST(PercentileRule, NeverBelowTheMedian) {
  EXPECT_DOUBLE_EQ(SupportedQuantile(25, 0.99), 0.6);
  EXPECT_DOUBLE_EQ(SupportedQuantile(20, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(SupportedQuantile(3, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(SupportedQuantile(0, 0.99), 0.5);
  EXPECT_DOUBLE_EQ(SupportedQuantile(1000, 0.5), 0.5);
}

TEST(PercentileRule, TailLeavesTenSamplesBeyond) {
  std::vector<double> v = Range(200);
  Tail t = TailQuantile(v, 0.99);
  EXPECT_EQ(t.samples, 200u);
  EXPECT_DOUBLE_EQ(t.quantile, 0.95);
  int beyond = 0;
  for (double x : v) {
    beyond += x > t.value ? 1 : 0;
  }
  EXPECT_GE(beyond, 10);
}

TEST(PercentileRule, QuantileInterpolates) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({1.0, 2.0, 3.0, 4.0}), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(Range(101), 0.99), 100.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(SpanRecorder, SelfTimeSubtractsNestedChildren) {
  // element.send [0, 100) contains netsim.tx [10, 40), which contains
  // trace [20, 25); a second trace [50, 60) sits directly under the send.
  SpanRecorder rec;
  rec.Begin(Layer::kElemSend, 0);
  rec.Begin(Layer::kNetTx, 10);
  rec.Begin(Layer::kTrace, 20);
  rec.End(25);
  rec.End(40);
  rec.Begin(Layer::kTrace, 50);
  rec.End(60);
  rec.End(100);
  EXPECT_TRUE(rec.idle());

  SpanRecorder::Aggregate send = rec.Total(Layer::kElemSend);
  EXPECT_EQ(send.calls, 1u);
  EXPECT_EQ(send.total_ns, 100);
  EXPECT_EQ(send.self_ns, 100 - 30 - 10);

  SpanRecorder::Aggregate tx = rec.Total(Layer::kNetTx);
  EXPECT_EQ(tx.total_ns, 30);
  EXPECT_EQ(tx.self_ns, 25);

  SpanRecorder::Aggregate trace = rec.Total(Layer::kTrace);
  EXPECT_EQ(trace.calls, 2u);
  EXPECT_EQ(trace.self_ns, 15);
  // Aggregated per parent.
  EXPECT_EQ(rec.aggregate(Layer::kTrace, static_cast<int>(Layer::kNetTx)).self_ns, 5);
  EXPECT_EQ(rec.aggregate(Layer::kTrace, static_cast<int>(Layer::kElemSend)).self_ns, 10);
  EXPECT_EQ(rec.aggregate(Layer::kElemSend, SpanRecorder::kRoot).calls, 1u);

  // Self times partition the top-level span.
  EXPECT_EQ(send.self_ns + tx.self_ns + trace.self_ns, rec.root_ns());
  EXPECT_EQ(rec.root_ns(), 100);
  EXPECT_DOUBLE_EQ(UnattributedShare(400, rec.root_ns()), 0.75);
}

TEST(SpanRecorder, RawSampleStaysBounded) {
  SpanRecorder rec;
  for (int64_t i = 0; i < 100000; ++i) {
    rec.Begin(Layer::kTcpRx, i * 10);
    rec.End(i * 10 + 5);
  }
  EXPECT_EQ(rec.Total(Layer::kTcpRx).calls, 100000u);
  EXPECT_LT(rec.raw_spans().size(), SpanRecorder::kMaxRawSpans);
  EXPECT_GT(rec.raw_spans().size(), SpanRecorder::kMaxRawSpans / 4);
  // The sample spans the whole run, not just its start.
  EXPECT_GT(rec.raw_spans().back().start_ns, 900000);
}

TEST(Shares, FailedShare) {
  EXPECT_DOUBLE_EQ(FailedShare(1024, 0), 0.0);
  EXPECT_DOUBLE_EQ(FailedShare(400, 4), 0.01);
  EXPECT_DOUBLE_EQ(FailedShare(0, 0), 0.0);
}

TEST(Shares, WorkerBusyShare) {
  // Four workers, each busy 1.5 s of a 2 s fleet run.
  EXPECT_DOUBLE_EQ(WorkerBusyShare(6.0, 4, 2.0), 0.75);
  EXPECT_DOUBLE_EQ(WorkerBusyShare(2.0, 1, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(WorkerBusyShare(1.0, 0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(WorkerBusyShare(1.0, 4, 0.0), 0.0);
}

TEST(SeedArgument, SameSeedSameEventsOtherSeedOtherEvents) {
  SimOutcome a = RunSinglePathReplica(SeedFor(7, 0), 3.0, nullptr, nullptr);
  SimOutcome b = RunSinglePathReplica(SeedFor(7, 0), 3.0, nullptr, nullptr);
  SimOutcome c = RunSinglePathReplica(SeedFor(8, 0), 3.0, nullptr, nullptr);
  ASSERT_GT(a.processed_events, 0u);
  EXPECT_EQ(a.processed_events, b.processed_events);
  EXPECT_EQ(CompareOutcomes(a, b), "");
  EXPECT_NE(a.processed_events, c.processed_events);
  EXPECT_NE(SeedFor(7, 1), SeedFor(8, 0));
}

TEST(SeedArgument, DumbbellSeedReachesTheDriver) {
  SimOutcome a = RunDumbbellDriver(SeedFor(7, 0), 0.3);
  SimOutcome b = RunDumbbellDriver(SeedFor(7, 0), 0.3);
  SimOutcome c = RunDumbbellDriver(SeedFor(8, 0), 0.3);
  EXPECT_EQ(a.processed_events, b.processed_events);
  EXPECT_NE(a.processed_events, c.processed_events);
}

TEST(Twin, TracedReplicaReproducesTheDriver) {
  SpanRecorder rec;
  LayerReport layers;
  SimOutcome driver = RunDumbbellDriver(SeedFor(7, 0), 0.3);
  SimOutcome traced = RunDumbbellReplica(SeedFor(7, 0), 0.3, &rec, &layers);
  EXPECT_EQ(CompareOutcomes(driver, traced), "");
  EXPECT_EQ(driver.processed_events, layers.events);
  EXPECT_GT(rec.Total(Layer::kTcpRx).calls, 0u);
  EXPECT_GT(layers.forwarded, 0u);
  EXPECT_TRUE(rec.idle());
}

}  // namespace
}  // namespace perfbench
