// Unit tests for the ground-truth tracer (the perf-profiler analogue) and the
// flow meter.

#include <gtest/gtest.h>

#include "src/apps/iperf_app.h"
#include "src/element/byte_sink.h"
#include "src/tcpsim/testbed.h"
#include "src/trace/flow_meter.h"
#include "src/trace/ground_truth.h"

namespace element {
namespace {

SimTime Ms(int64_t ms) { return SimTime::FromNanos(ms * 1'000'000); }
SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

TEST(GroundTruthTracerTest, SenderDelayIsWriteToFirstTransmit) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 1000, Ms(10));
  tracer.OnTcpTransmit(0, 500, Ms(15), false);
  tracer.OnTcpTransmit(500, 1000, Ms(40), false);
  ASSERT_EQ(tracer.sender_delay().count(), 2u);
  EXPECT_NEAR(tracer.sender_delay().samples()[0], 0.005, 1e-9);
  EXPECT_NEAR(tracer.sender_delay().samples()[1], 0.030, 1e-9);
}

TEST(GroundTruthTracerTest, NetworkDelayPairsWithLastTransmit) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 1000, Ms(0));
  tracer.OnTcpTransmit(0, 1000, Ms(5), false);
  // First copy lost; retransmitted at 105 ms, arrives at 130 ms.
  tracer.OnTcpTransmit(0, 1000, Ms(105), true);
  tracer.OnTcpRxSegment(0, 1000, Ms(130), true);
  ASSERT_EQ(tracer.network_delay().count(), 1u);
  EXPECT_NEAR(tracer.network_delay().samples()[0], 0.025, 1e-9);
}

TEST(GroundTruthTracerTest, ReceiverDelayIsArrivalToRead) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 2000, Ms(0));
  tracer.OnTcpTransmit(0, 2000, Ms(1), false);
  tracer.OnTcpRxSegment(0, 1000, Ms(30), true);
  tracer.OnTcpRxSegment(1000, 2000, Ms(35), true);
  tracer.OnAppRead(0, 2000, Ms(40));  // read spans both arrival ranges
  ASSERT_EQ(tracer.receiver_delay().count(), 2u);
  EXPECT_NEAR(tracer.receiver_delay().samples()[0], 0.010, 1e-9);
  EXPECT_NEAR(tracer.receiver_delay().samples()[1], 0.005, 1e-9);
  // End-to-end = write -> read.
  ASSERT_EQ(tracer.end_to_end_delay().count(), 2u);
  EXPECT_NEAR(tracer.end_to_end_delay().samples()[0], 0.040, 1e-9);
}

TEST(GroundTruthTracerTest, OutOfOrderArrivalCoversEachByteOnce) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 3000, Ms(0));
  tracer.OnTcpTransmit(0, 1000, Ms(1), false);
  tracer.OnTcpTransmit(1000, 2000, Ms(2), false);
  tracer.OnTcpTransmit(2000, 3000, Ms(3), false);
  // Middle segment lost initially; the others arrive, then the hole fills.
  tracer.OnTcpRxSegment(0, 1000, Ms(20), true);
  tracer.OnTcpRxSegment(2000, 3000, Ms(22), false);  // out of order
  tracer.OnTcpTransmit(1000, 2000, Ms(60), true);
  tracer.OnTcpRxSegment(1000, 2000, Ms(80), true);
  SimTime t;
  ASSERT_TRUE(tracer.ArrivalTimeOf(2500, &t));
  EXPECT_EQ(t, Ms(22));
  ASSERT_TRUE(tracer.ArrivalTimeOf(1500, &t));
  EXPECT_EQ(t, Ms(80));
  EXPECT_EQ(tracer.network_delay().count(), 3u);
}

// The in-order hole fill is recorded after the two out-of-order ranges above
// it, so its arrival sorts below entries already in the table.
TEST(GroundTruthTracerTest, HoleFillRecordedAfterTwoOutOfOrderArrivals) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 4000, Ms(0));
  for (uint64_t k = 0; k < 4; ++k) {
    tracer.OnTcpTransmit(k * 1000, (k + 1) * 1000, Ms(static_cast<int64_t>(k) + 1), false);
  }
  tracer.OnTcpRxSegment(0, 1000, Ms(10), true);
  tracer.OnTcpRxSegment(2000, 3000, Ms(12), false);
  tracer.OnTcpRxSegment(3000, 4000, Ms(13), false);
  tracer.OnTcpTransmit(1000, 2000, Ms(50), true);
  tracer.OnTcpRxSegment(1000, 2000, Ms(70), true);

  SimTime t;
  ASSERT_TRUE(tracer.ArrivalTimeOf(500, &t));
  EXPECT_EQ(t, Ms(10));
  ASSERT_TRUE(tracer.ArrivalTimeOf(1000, &t));
  EXPECT_EQ(t, Ms(70));
  ASSERT_TRUE(tracer.ArrivalTimeOf(2999, &t));
  EXPECT_EQ(t, Ms(12));
  ASSERT_TRUE(tracer.ArrivalTimeOf(3000, &t));
  EXPECT_EQ(t, Ms(13));
  EXPECT_FALSE(tracer.ArrivalTimeOf(4000, &t));
  // Network delay samples come in arrival order; the hole pairs with its
  // retransmission.
  ASSERT_EQ(tracer.network_delay().count(), 4u);
  EXPECT_NEAR(tracer.network_delay().samples()[0], 0.009, 1e-9);
  EXPECT_NEAR(tracer.network_delay().samples()[1], 0.009, 1e-9);
  EXPECT_NEAR(tracer.network_delay().samples()[2], 0.009, 1e-9);
  EXPECT_NEAR(tracer.network_delay().samples()[3], 0.020, 1e-9);

  tracer.OnAppRead(0, 4000, Ms(80));
  ASSERT_EQ(tracer.receiver_delay().count(), 4u);
  EXPECT_NEAR(tracer.receiver_delay().samples()[0], 0.070, 1e-9);
  EXPECT_NEAR(tracer.receiver_delay().samples()[1], 0.010, 1e-9);
  EXPECT_NEAR(tracer.receiver_delay().samples()[2], 0.068, 1e-9);
  EXPECT_NEAR(tracer.receiver_delay().samples()[3], 0.067, 1e-9);
}

TEST(GroundTruthTracerTest, OutOfOrderArrivalsInDescendingOrder) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 4000, Ms(0));
  tracer.OnTcpTransmit(0, 4000, Ms(1), false);
  tracer.OnTcpRxSegment(3000, 4000, Ms(12), false);
  tracer.OnTcpRxSegment(2000, 3000, Ms(13), false);
  tracer.OnTcpRxSegment(1000, 2000, Ms(14), false);
  tracer.OnTcpRxSegment(0, 1000, Ms(15), true);

  SimTime t;
  for (uint64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(tracer.ArrivalTimeOf(k * 1000 + 999, &t)) << k;
    EXPECT_EQ(t, Ms(15 - static_cast<int64_t>(k))) << k;
  }
  // Every arrival pairs with the one transmission covering its first byte.
  ASSERT_EQ(tracer.network_delay().count(), 4u);
  EXPECT_NEAR(tracer.network_delay().samples()[0], 0.011, 1e-9);
  EXPECT_NEAR(tracer.network_delay().samples()[3], 0.014, 1e-9);

  tracer.OnAppRead(0, 4000, Ms(20));
  ASSERT_EQ(tracer.receiver_delay().count(), 4u);
  EXPECT_NEAR(tracer.receiver_delay().samples()[0], 0.005, 1e-9);
  EXPECT_NEAR(tracer.receiver_delay().samples()[1], 0.006, 1e-9);
  EXPECT_NEAR(tracer.receiver_delay().samples()[2], 0.007, 1e-9);
  EXPECT_NEAR(tracer.receiver_delay().samples()[3], 0.008, 1e-9);
}

// A retransmission of a range below the newest transmission overwrites that
// range's entry; the later arrival pairs with the retransmission.
TEST(GroundTruthTracerTest, RetransmissionOverwritesExistingBegin) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 3000, Ms(0));
  tracer.OnTcpTransmit(0, 1000, Ms(5), false);
  tracer.OnTcpTransmit(1000, 2000, Ms(6), false);
  tracer.OnTcpTransmit(2000, 3000, Ms(7), false);
  tracer.OnTcpRxSegment(1000, 2000, Ms(36), false);
  tracer.OnTcpTransmit(0, 1000, Ms(100), true);
  tracer.OnTcpRxSegment(0, 1000, Ms(130), true);
  tracer.OnTcpRxSegment(2000, 3000, Ms(137), true);

  ASSERT_EQ(tracer.network_delay().count(), 3u);
  EXPECT_NEAR(tracer.network_delay().samples()[0], 0.030, 1e-9);
  EXPECT_NEAR(tracer.network_delay().samples()[1], 0.030, 1e-9);
  EXPECT_NEAR(tracer.network_delay().samples()[2], 0.130, 1e-9);
  // The retransmission is not a first transmission.
  ASSERT_EQ(tracer.sender_delay().count(), 3u);
  SimTime t;
  ASSERT_TRUE(tracer.FirstTxTimeOf(10, &t));
  EXPECT_EQ(t, Ms(5));
}

TEST(GroundTruthTracerTest, ReadSpanningThreeArrivalsSamplesInByteOrder) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 3000, Ms(0));
  tracer.OnTcpTransmit(0, 3000, Ms(1), false);
  tracer.OnTcpRxSegment(0, 1000, Ms(30), true);
  tracer.OnTcpRxSegment(2000, 3000, Ms(32), false);
  tracer.OnTcpRxSegment(1000, 2000, Ms(35), true);
  tracer.OnAppRead(0, 3000, Ms(40));

  ASSERT_EQ(tracer.receiver_delay().count(), 3u);
  EXPECT_NEAR(tracer.receiver_delay().samples()[0], 0.010, 1e-9);
  EXPECT_NEAR(tracer.receiver_delay().samples()[1], 0.005, 1e-9);
  EXPECT_NEAR(tracer.receiver_delay().samples()[2], 0.008, 1e-9);
  ASSERT_EQ(tracer.receiver_delay_series().count(), 3u);
  ASSERT_EQ(tracer.end_to_end_delay().count(), 3u);
  for (double d : tracer.end_to_end_delay().samples()) {
    EXPECT_NEAR(d, 0.040, 1e-9);
  }
}

TEST(GroundTruthTracerTest, EarlyByteLookupsAfterManyAppendedRanges) {
  GroundTruthTracer tracer;
  constexpr uint64_t kRanges = 10'000;
  for (uint64_t k = 0; k < kRanges; ++k) {
    int64_t ms = static_cast<int64_t>(k);
    tracer.OnAppWrite(k * 100, (k + 1) * 100, Ms(ms));
    tracer.OnTcpTransmit(k * 100, (k + 1) * 100, Ms(ms + 1), false);
    tracer.OnTcpRxSegment(k * 100, (k + 1) * 100, Ms(ms + 20), true);
  }
  SimTime t;
  ASSERT_TRUE(tracer.ArrivalTimeOf(0, &t));
  EXPECT_EQ(t, Ms(20));
  ASSERT_TRUE(tracer.ArrivalTimeOf(150, &t));
  EXPECT_EQ(t, Ms(21));
  ASSERT_TRUE(tracer.FirstTxTimeOf(99, &t));
  EXPECT_EQ(t, Ms(1));
  ASSERT_TRUE(tracer.FirstTxTimeOf(250, &t));
  EXPECT_EQ(t, Ms(3));
  ASSERT_TRUE(tracer.ArrivalTimeOf(kRanges * 100 - 1, &t));
  EXPECT_EQ(t, Ms(static_cast<int64_t>(kRanges) - 1 + 20));
  EXPECT_FALSE(tracer.ArrivalTimeOf(kRanges * 100, &t));
  EXPECT_FALSE(tracer.FirstTxTimeOf(kRanges * 100, &t));
  EXPECT_EQ(tracer.network_delay().count(), kRanges);
}

TEST(GroundTruthTracerTest, GoBackNRewindDoesNotDoubleCountSenderDelay) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 2000, Ms(0));
  tracer.OnTcpTransmit(0, 2000, Ms(5), false);
  // Pre-SACK style rewind resends the same bytes flagged fresh.
  tracer.OnTcpTransmit(0, 2000, Ms(300), false);
  EXPECT_EQ(tracer.sender_delay().count(), 1u);
  EXPECT_NEAR(tracer.sender_delay().samples()[0], 0.005, 1e-9);
}

TEST(GroundTruthTracerTest, RecordFromSkipsEarlySamples) {
  GroundTruthTracer::Config cfg;
  cfg.record_from = Ms(100);
  GroundTruthTracer tracer(cfg);
  tracer.OnAppWrite(0, 1000, Ms(0));
  tracer.OnTcpTransmit(0, 1000, Ms(5), false);  // before record_from: skipped
  tracer.OnAppWrite(1000, 2000, Ms(150));
  tracer.OnTcpTransmit(1000, 2000, Ms(170), false);
  ASSERT_EQ(tracer.sender_delay().count(), 1u);
  EXPECT_NEAR(tracer.sender_delay().samples()[0], 0.020, 1e-9);
}

TEST(GroundTruthTracerTest, LookupsFailBeforeData) {
  GroundTruthTracer tracer;
  SimTime t;
  EXPECT_FALSE(tracer.WriteTimeOf(0, &t));
  EXPECT_FALSE(tracer.FirstTxTimeOf(0, &t));
  EXPECT_FALSE(tracer.ArrivalTimeOf(0, &t));
  tracer.OnAppWrite(0, 100, Ms(1));
  EXPECT_TRUE(tracer.WriteTimeOf(50, &t));
  EXPECT_FALSE(tracer.WriteTimeOf(100, &t));  // half-open
}

TEST(GroundTruthTracerTest, CompositionSumsMeans) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 1000, Ms(0));
  tracer.OnTcpTransmit(0, 1000, Ms(10), false);
  tracer.OnTcpRxSegment(0, 1000, Ms(40), true);
  tracer.OnAppRead(0, 1000, Ms(45));
  GroundTruthTracer::Composition c = tracer.MeanComposition();
  EXPECT_NEAR(c.sender_s, 0.010, 1e-9);
  EXPECT_NEAR(c.network_s, 0.030, 1e-9);
  EXPECT_NEAR(c.receiver_s, 0.005, 1e-9);
  EXPECT_NEAR(c.total_s, 0.045, 1e-9);
}

TEST(GroundTruthTracerTest, EndToEndConsistencyOnLiveFlow) {
  PathConfig path;
  Testbed bed(3, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  GroundTruthTracer tracer;
  flow.sender->telemetry().AttachSink(&tracer);
  flow.receiver->telemetry().AttachSink(&tracer);
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(10.0));
  ASSERT_GT(tracer.end_to_end_delay().count(), 100u);
  // Invariants: components non-negative, network >= one-way floor 25 ms.
  EXPECT_GE(tracer.sender_delay().min(), 0.0);
  EXPECT_GE(tracer.network_delay().min(), 0.025);
  EXPECT_GE(tracer.receiver_delay().min(), 0.0);
  GroundTruthTracer::Composition c = tracer.MeanComposition();
  EXPECT_NEAR(c.total_s, tracer.end_to_end_delay().mean(), c.total_s * 0.25);
}

// Dropping the time series (what the experiment drivers do for flows whose
// series nothing reads) must not change a single sample: the same record
// stream feeds both tracers.
TEST(GroundTruthTracerTest, DroppingTimeSeriesKeepsSamples) {
  PathConfig path;
  path.loss_probability = 0.01;  // retransmissions and out-of-order arrivals
  Testbed bed(5, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  GroundTruthTracer::Config with_series;
  with_series.record_from = Sec(2.0);
  GroundTruthTracer::Config without_series = with_series;
  without_series.keep_time_series = false;
  GroundTruthTracer kept(with_series);
  GroundTruthTracer dropped(without_series);
  for (GroundTruthTracer* tracer : {&kept, &dropped}) {
    flow.sender->telemetry().AttachSink(tracer);
    flow.receiver->telemetry().AttachSink(tracer);
  }
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(10.0));

  ASSERT_GT(kept.end_to_end_delay().count(), 100u);
  EXPECT_GT(flow.sender->total_retransmits(), 0u);
  EXPECT_EQ(kept.sender_delay().samples(), dropped.sender_delay().samples());
  EXPECT_EQ(kept.network_delay().samples(), dropped.network_delay().samples());
  EXPECT_EQ(kept.receiver_delay().samples(), dropped.receiver_delay().samples());
  EXPECT_EQ(kept.end_to_end_delay().samples(), dropped.end_to_end_delay().samples());
  GroundTruthTracer::Composition a = kept.MeanComposition();
  GroundTruthTracer::Composition b = dropped.MeanComposition();
  EXPECT_EQ(a.sender_s, b.sender_s);
  EXPECT_EQ(a.network_s, b.network_s);
  EXPECT_EQ(a.receiver_s, b.receiver_s);
  EXPECT_EQ(a.total_s, b.total_s);

  EXPECT_EQ(kept.sender_delay_series().count(), kept.sender_delay().count());
  EXPECT_EQ(kept.receiver_delay_series().count(), kept.receiver_delay().count());
  EXPECT_TRUE(dropped.sender_delay_series().empty());
  EXPECT_TRUE(dropped.receiver_delay_series().empty());
}

TEST(FlowMeterTest, MeasuresGoodput) {
  PathConfig path;
  path.rate = DataRate::Mbps(10);
  Testbed bed(4, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  FlowMeter meter(&bed.loop(), flow.receiver);
  meter.Start();
  bed.loop().RunUntil(Sec(20.0));
  EXPECT_NEAR(meter.MeanGoodput().ToMbps(), 9.5, 1.0);
  ASSERT_GT(meter.throughput_mbps().count(), 100u);
  // Steady-state samples hover near the link rate.
  EXPECT_NEAR(meter.throughput_mbps().MeanAfter(Sec(5.0)), 9.7, 0.8);
}

}  // namespace
}  // namespace element
