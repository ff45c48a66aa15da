// Unit tests for the ground-truth tracer (the perf-profiler analogue) and the
// flow meter.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/apps/iperf_app.h"
#include "src/common/rng.h"
#include "src/element/byte_sink.h"
#include "src/tcpsim/testbed.h"
#include "src/trace/flow_meter.h"
#include "src/trace/ground_truth.h"

namespace element {
namespace {

SimTime Ms(int64_t ms) { return SimTime::FromNanos(ms * 1'000'000); }
SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

// The tracer keeps only counts and sums; the sender and receiver series
// hold the samples themselves, in the order they were taken.
double SenderSample(const GroundTruthTracer& tracer, size_t i) {
  return tracer.sender_delay_series().points().at(i).v;
}
double ReceiverSample(const GroundTruthTracer& tracer, size_t i) {
  return tracer.receiver_delay_series().points().at(i).v;
}

TEST(GroundTruthTracerTest, SenderDelayIsWriteToFirstTransmit) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 1000, Ms(10));
  tracer.OnTcpTransmit(0, 500, Ms(15), false);
  tracer.OnTcpTransmit(500, 1000, Ms(40), false);
  ASSERT_EQ(tracer.sender_delay().count(), 2u);
  EXPECT_NEAR(SenderSample(tracer, 0), 0.005, 1e-9);
  EXPECT_NEAR(SenderSample(tracer, 1), 0.030, 1e-9);
  EXPECT_NEAR(tracer.sender_delay().mean(), 0.0175, 1e-9);
}

TEST(GroundTruthTracerTest, NetworkDelayPairsWithLastTransmit) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 1000, Ms(0));
  tracer.OnTcpTransmit(0, 1000, Ms(5), false);
  // First copy lost; retransmitted at 105 ms, arrives at 130 ms.
  tracer.OnTcpTransmit(0, 1000, Ms(105), true);
  tracer.OnTcpRxSegment(0, 1000, Ms(130), true);
  ASSERT_EQ(tracer.network_delay().count(), 1u);
  EXPECT_NEAR(tracer.network_delay().mean(), 0.025, 1e-9);
}

TEST(GroundTruthTracerTest, ReceiverDelayIsArrivalToRead) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 2000, Ms(0));
  tracer.OnTcpTransmit(0, 2000, Ms(1), false);
  tracer.OnTcpRxSegment(0, 1000, Ms(30), true);
  tracer.OnTcpRxSegment(1000, 2000, Ms(35), true);
  tracer.OnAppRead(0, 2000, Ms(40));  // read spans both arrival ranges
  ASSERT_EQ(tracer.receiver_delay().count(), 2u);
  EXPECT_NEAR(ReceiverSample(tracer, 0), 0.010, 1e-9);
  EXPECT_NEAR(ReceiverSample(tracer, 1), 0.005, 1e-9);
  // End-to-end = write -> read, once per arrival range.
  ASSERT_EQ(tracer.end_to_end_delay().count(), 2u);
  EXPECT_NEAR(tracer.end_to_end_delay().mean(), 0.040, 1e-9);
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
  EXPECT_EQ(tracer.network_delay().count(), 3u);
  // Each range is read at 90 ms with the time of its one arrival.
  tracer.OnAppRead(0, 3000, Ms(90));
  ASSERT_EQ(tracer.receiver_delay().count(), 3u);
  EXPECT_NEAR(ReceiverSample(tracer, 0), 0.070, 1e-9);
  EXPECT_NEAR(ReceiverSample(tracer, 1), 0.010, 1e-9);
  EXPECT_NEAR(ReceiverSample(tracer, 2), 0.068, 1e-9);
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

  // The hole pairs with its retransmission: 9, 9, 9 and 20 ms.
  ASSERT_EQ(tracer.network_delay().count(), 4u);
  EXPECT_NEAR(tracer.network_delay().mean(), 0.047 / 4, 1e-9);

  // Each range is read with the time of its own arrival, the hole fill's
  // included.
  tracer.OnAppRead(0, 4000, Ms(80));
  ASSERT_EQ(tracer.receiver_delay().count(), 4u);
  EXPECT_NEAR(ReceiverSample(tracer, 0), 0.070, 1e-9);
  EXPECT_NEAR(ReceiverSample(tracer, 1), 0.010, 1e-9);
  EXPECT_NEAR(ReceiverSample(tracer, 2), 0.068, 1e-9);
  EXPECT_NEAR(ReceiverSample(tracer, 3), 0.067, 1e-9);
  // Nothing arrived past 4000.
  tracer.OnAppRead(4000, 5000, Ms(90));
  EXPECT_EQ(tracer.receiver_delay().count(), 4u);
}

TEST(GroundTruthTracerTest, OutOfOrderArrivalsInDescendingOrder) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 4000, Ms(0));
  tracer.OnTcpTransmit(0, 4000, Ms(1), false);
  tracer.OnTcpRxSegment(3000, 4000, Ms(12), false);
  tracer.OnTcpRxSegment(2000, 3000, Ms(13), false);
  tracer.OnTcpRxSegment(1000, 2000, Ms(14), false);
  tracer.OnTcpRxSegment(0, 1000, Ms(15), true);

  // Every arrival pairs with the one transmission covering its first byte:
  // 11, 12, 13 and 14 ms.
  ASSERT_EQ(tracer.network_delay().count(), 4u);
  EXPECT_NEAR(tracer.network_delay().mean(), 0.0125, 1e-9);

  tracer.OnAppRead(0, 4000, Ms(20));
  ASSERT_EQ(tracer.receiver_delay().count(), 4u);
  EXPECT_NEAR(ReceiverSample(tracer, 0), 0.005, 1e-9);
  EXPECT_NEAR(ReceiverSample(tracer, 1), 0.006, 1e-9);
  EXPECT_NEAR(ReceiverSample(tracer, 2), 0.007, 1e-9);
  EXPECT_NEAR(ReceiverSample(tracer, 3), 0.008, 1e-9);
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

  // 30, 30 and 130 ms.
  ASSERT_EQ(tracer.network_delay().count(), 3u);
  EXPECT_NEAR(tracer.network_delay().mean(), 0.190 / 3, 1e-9);
  // The retransmission is not a first transmission: the sender delays are
  // those of the three first copies.
  ASSERT_EQ(tracer.sender_delay().count(), 3u);
  ASSERT_EQ(tracer.sender_delay_series().count(), 3u);
  EXPECT_EQ(tracer.sender_delay_series().points()[0].t, Ms(5));
  EXPECT_NEAR(SenderSample(tracer, 0), 0.005, 1e-9);
  EXPECT_NEAR(SenderSample(tracer, 2), 0.007, 1e-9);
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
  ASSERT_EQ(tracer.receiver_delay_series().count(), 3u);
  EXPECT_NEAR(ReceiverSample(tracer, 0), 0.010, 1e-9);
  EXPECT_NEAR(ReceiverSample(tracer, 1), 0.005, 1e-9);
  EXPECT_NEAR(ReceiverSample(tracer, 2), 0.008, 1e-9);
  ASSERT_EQ(tracer.end_to_end_delay().count(), 3u);
  EXPECT_NEAR(tracer.end_to_end_delay().mean(), 0.040, 1e-9);
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
  EXPECT_EQ(tracer.network_delay().count(), kRanges);
  ASSERT_EQ(tracer.sender_delay_series().count(), kRanges);
  EXPECT_EQ(tracer.sender_delay_series().points()[2].t, Ms(3));
  EXPECT_NEAR(tracer.sender_delay().mean(), 0.001, 1e-9);

  // Nothing has been read, so the earliest arrivals are still there. The
  // first read ends inside the second range, which the next read begins in.
  const int64_t read_ms = static_cast<int64_t>(kRanges) + 100;
  tracer.OnAppRead(0, 150, Ms(read_ms));
  ASSERT_EQ(tracer.receiver_delay().count(), 2u);
  EXPECT_NEAR(ReceiverSample(tracer, 0), (read_ms - 20) / 1e3, 1e-9);
  EXPECT_NEAR(ReceiverSample(tracer, 1), (read_ms - 21) / 1e3, 1e-9);
  tracer.OnAppRead(150, kRanges * 100, Ms(read_ms));
  ASSERT_EQ(tracer.receiver_delay().count(), kRanges + 1);
  EXPECT_NEAR(ReceiverSample(tracer, 2), (read_ms - 21) / 1e3, 1e-9);
  EXPECT_NEAR(ReceiverSample(tracer, kRanges), 0.081, 1e-9);
  // Nothing arrived past the last range.
  tracer.OnAppRead(kRanges * 100, kRanges * 100 + 1, Ms(read_ms));
  EXPECT_EQ(tracer.receiver_delay().count(), kRanges + 1);
}

TEST(GroundTruthTracerTest, GoBackNRewindDoesNotDoubleCountSenderDelay) {
  GroundTruthTracer tracer;
  tracer.OnAppWrite(0, 2000, Ms(0));
  tracer.OnTcpTransmit(0, 2000, Ms(5), false);
  // Pre-SACK style rewind resends the same bytes flagged fresh.
  tracer.OnTcpTransmit(0, 2000, Ms(300), false);
  EXPECT_EQ(tracer.sender_delay().count(), 1u);
  EXPECT_NEAR(tracer.sender_delay().mean(), 0.005, 1e-9);
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
  EXPECT_NEAR(tracer.sender_delay().mean(), 0.020, 1e-9);
}

TEST(GroundTruthTracerTest, LookupsFailBeforeData) {
  GroundTruthTracer tracer;
  SimTime t;
  EXPECT_FALSE(tracer.WriteTimeOf(0, &t));
  tracer.OnAppWrite(0, 100, Ms(1));
  EXPECT_TRUE(tracer.WriteTimeOf(50, &t));
  EXPECT_FALSE(tracer.WriteTimeOf(100, &t));  // half-open
}

// Write ranges that both the transmit and the read lookups have passed are
// dropped, and so are the arrivals below the one a read ended in; the
// range a read ended in stays for the next read.
TEST(GroundTruthTracerTest, ReadsDropWhatTheyPassed) {
  GroundTruthTracer tracer;
  for (uint64_t k = 0; k < 8; ++k) {
    int64_t ms = static_cast<int64_t>(k);
    tracer.OnAppWrite(k * 100, (k + 1) * 100, Ms(ms));
    tracer.OnTcpTransmit(k * 100, (k + 1) * 100, Ms(ms + 10), false);
    tracer.OnTcpRxSegment(k * 100, (k + 1) * 100, Ms(ms + 30), true);
  }
  SimTime t;
  ASSERT_TRUE(tracer.WriteTimeOf(0, &t));  // nothing read yet
  EXPECT_EQ(t, Ms(0));
  tracer.OnAppRead(0, 650, Ms(40));
  EXPECT_EQ(tracer.receiver_delay().count(), 7u);
  EXPECT_FALSE(tracer.WriteTimeOf(0, &t));
  EXPECT_FALSE(tracer.WriteTimeOf(599, &t));
  ASSERT_TRUE(tracer.WriteTimeOf(600, &t));
  EXPECT_EQ(t, Ms(6));
  ASSERT_TRUE(tracer.WriteTimeOf(799, &t));
  EXPECT_EQ(t, Ms(7));
  EXPECT_FALSE(tracer.WriteTimeOf(800, &t));

  // The next read begins inside the range the last one ended in.
  tracer.OnAppRead(650, 800, Ms(50));
  ASSERT_EQ(tracer.receiver_delay().count(), 9u);
  EXPECT_NEAR(ReceiverSample(tracer, 7), 0.014, 1e-9);
  EXPECT_NEAR(ReceiverSample(tracer, 8), 0.013, 1e-9);
  EXPECT_EQ(tracer.end_to_end_delay().count(), 9u);
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
  for (auto part : {&GroundTruthTracer::sender_delay, &GroundTruthTracer::network_delay,
                    &GroundTruthTracer::receiver_delay, &GroundTruthTracer::end_to_end_delay}) {
    EXPECT_EQ((kept.*part)().count(), (dropped.*part)().count());
    EXPECT_EQ((kept.*part)().mean(), (dropped.*part)().mean());
  }
  GroundTruthTracer::Composition a = kept.MeanComposition();
  GroundTruthTracer::Composition b = dropped.MeanComposition();
  EXPECT_EQ(a.sender_s, b.sender_s);
  EXPECT_EQ(a.network_s, b.network_s);
  EXPECT_EQ(a.receiver_s, b.receiver_s);
  EXPECT_EQ(a.total_s, b.total_s);

  EXPECT_EQ(kept.sender_delay_series().count(), kept.sender_delay().count());
  EXPECT_EQ(kept.receiver_delay_series().count(), kept.receiver_delay().count());
  EXPECT_EQ(dropped.sender_delay_series().count(), 0u);
  EXPECT_EQ(dropped.receiver_delay_series().count(), 0u);
}

// The tracer as it was before it kept cursors, trimmed its tables and kept
// sums: every table whole, a binary search of it on every record, and every
// sample stored.
class BinarySearchTracer : public telemetry::RecordSink {
 public:
  explicit BinarySearchTracer(SimTime record_from) : record_from_(record_from) {}

  void OnRecord(const telemetry::TraceRecord& r) override {
    uint64_t begin = r.u.range.begin;
    uint64_t end = r.u.range.end;
    switch (r.kind) {
      case telemetry::RecordKind::kAppWrite:
        if (writes_.empty() || end > writes_.back().end) {
          writes_.push_back({end, r.t});
        }
        break;
      case telemetry::RecordKind::kTcpTransmit:
        OnTcpTransmit(begin, end, r.t);
        break;
      case telemetry::RecordKind::kTcpRxSegment:
        OnTcpRxSegment(begin, end, r.t);
        break;
      case telemetry::RecordKind::kAppRead:
        OnAppRead(begin, end, r.t);
        break;
      default:
        break;
    }
  }

  bool WriteTimeOf(uint64_t byte, SimTime* out) const { return Lookup(writes_, byte, out); }

  SampleSet sender;
  SampleSet network;
  SampleSet receiver;
  SampleSet end_to_end;
  TimeSeries sender_series;
  TimeSeries receiver_series;

 private:
  struct Range {
    uint64_t end;
    SimTime t;
  };
  struct Span {
    uint64_t begin;
    uint64_t end;
    SimTime t;
  };
  using SpanTable = std::vector<Span>;

  static bool Lookup(const std::vector<Range>& ranges, uint64_t byte, SimTime* out) {
    auto it = std::upper_bound(ranges.begin(), ranges.end(), byte,
                               [](uint64_t b, const Range& r) { return b < r.end; });
    if (it == ranges.end()) {
      return false;
    }
    *out = it->t;
    return true;
  }
  static void Upsert(SpanTable* table, uint64_t begin, uint64_t end, SimTime t) {
    auto it = std::lower_bound(table->begin(), table->end(), begin,
                               [](const Span& s, uint64_t b) { return s.begin < b; });
    if (it != table->end() && it->begin == begin) {
      *it = {begin, end, t};
    } else {
      table->insert(it, {begin, end, t});
    }
  }
  static SpanTable::const_iterator PastFloor(const SpanTable& table,
                                             SpanTable::const_iterator first, uint64_t byte) {
    return std::upper_bound(first, table.end(), byte,
                            [](uint64_t b, const Span& s) { return b < s.begin; });
  }

  void OnTcpTransmit(uint64_t begin, uint64_t end, SimTime t) {
    Upsert(&last_tx_, begin, end, t);
    uint64_t last = first_tx_.empty() ? 0 : first_tx_.back().end;
    if (end <= last) {
      return;
    }
    uint64_t new_begin = std::max(begin, last);
    first_tx_.push_back({end, t});
    SimTime wt;
    if (t >= record_from_ && WriteTimeOf(new_begin, &wt)) {
      sender.Add((t - wt).ToSeconds());
      sender_series.Add(t, (t - wt).ToSeconds());
    }
  }
  void OnTcpRxSegment(uint64_t begin, uint64_t end, SimTime t) {
    Upsert(&arrivals_, begin, end, t);
    if (t < record_from_) {
      return;
    }
    auto it = PastFloor(last_tx_, last_tx_.begin(), begin);
    if (it != last_tx_.begin() && begin < (it - 1)->end && (it - 1)->t <= t) {
      network.Add((t - (it - 1)->t).ToSeconds());
    }
  }
  void OnAppRead(uint64_t begin, uint64_t end, SimTime t) {
    if (t < record_from_) {
      return;
    }
    uint64_t cursor = begin;
    auto from = arrivals_.cbegin();
    while (cursor < end) {
      auto it = PastFloor(arrivals_, from, cursor);
      if (it == arrivals_.cbegin() || cursor >= (it - 1)->end) {
        break;
      }
      double d = (t - (it - 1)->t).ToSeconds();
      receiver.Add(d);
      receiver_series.Add(t, d);
      SimTime wt;
      if (WriteTimeOf(cursor, &wt)) {
        end_to_end.Add((t - wt).ToSeconds());
      }
      cursor = (it - 1)->end;
      from = it;
    }
  }

  SimTime record_from_;
  std::vector<Range> writes_;
  std::vector<Range> first_tx_;
  SpanTable last_tx_;
  SpanTable arrivals_;
};

// A random record stream for one flow: writes, first transmissions,
// retransmissions over new segment boundaries, arrivals in and out of order
// (hole fills, duplicates, some below the read point) and reads of the
// in-order prefix that span several arrivals. Counts what it produced.
struct RandomFlowStream {
  std::vector<telemetry::TraceRecord> records;
  int retransmits = 0;
  int out_of_order = 0;
  int below_read = 0;
  int reads = 0;
  uint64_t read = 0;  // bytes read by the end

  RandomFlowStream(uint64_t seed, int steps) {
    Rng rng(seed);
    int64_t now_ns = 0;
    uint64_t written = 0;
    uint64_t sent = 0;
    uint64_t rcv_next = 0;
    std::vector<std::pair<uint64_t, uint64_t>> in_flight;
    std::map<uint64_t, uint64_t> above_hole;  // out-of-order ranges past rcv_next
    auto emit = [&](telemetry::RecordKind kind, uint64_t begin, uint64_t end, uint8_t flags) {
      records.push_back(telemetry::TraceRecord::Range(kind, 1, SimTime::FromNanos(now_ns), begin,
                                                      end, flags));
    };
    for (int step = 0; step < steps; ++step) {
      now_ns += rng.UniformInt(0, 2) * 100'000;  // equal times are common
      double pick = rng.Uniform();
      if (pick < 0.2) {
        uint64_t n = static_cast<uint64_t>(rng.UniformInt(1, 5000));
        emit(telemetry::RecordKind::kAppWrite, written, written + n, 0);
        written += n;
      } else if (pick < 0.45) {
        if (sent < written) {
          uint64_t end = std::min(written, sent + static_cast<uint64_t>(rng.UniformInt(1, 1500)));
          emit(telemetry::RecordKind::kTcpTransmit, sent, end, 0);
          in_flight.push_back({sent, end});
          sent = end;
        }
      } else if (pick < 0.55) {
        if (sent > 0) {
          // Anywhere in the last 20 kB, so boundaries rarely match the
          // first copy's; a go-back-N resend is flagged fresh.
          uint64_t begin = static_cast<uint64_t>(
              rng.UniformInt(static_cast<int64_t>(sent > 20000 ? sent - 20000 : 0),
                             static_cast<int64_t>(sent) - 1));
          uint64_t end = std::min(sent, begin + static_cast<uint64_t>(rng.UniformInt(1, 3000)));
          emit(telemetry::RecordKind::kTcpTransmit, begin, end,
               rng.Bernoulli(0.8) ? telemetry::kFlagRetransmit : 0);
          in_flight.push_back({begin, end});
          ++retransmits;
        }
      } else if (pick < 0.85) {
        if (!in_flight.empty()) {
          size_t k = rng.Bernoulli(0.7)
                         ? 0
                         : static_cast<size_t>(
                               rng.UniformInt(0, static_cast<int64_t>(in_flight.size()) - 1));
          auto [begin, end] = in_flight[k];
          if (!rng.Bernoulli(0.1)) {  // else a duplicate arrives later too
            in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(k));
          }
          bool in_order = begin <= rcv_next;
          out_of_order += in_order ? 0 : 1;
          below_read += end <= read ? 1 : 0;
          emit(telemetry::RecordKind::kTcpRxSegment, begin, end,
               in_order ? 0 : telemetry::kFlagOutOfOrder);
          if (in_order) {
            rcv_next = std::max(rcv_next, end);
          } else {
            uint64_t& stored = above_hole[begin];
            stored = std::max(stored, end);
          }
          while (!above_hole.empty() && above_hole.begin()->first <= rcv_next) {
            rcv_next = std::max(rcv_next, above_hole.begin()->second);
            above_hole.erase(above_hole.begin());
          }
        }
      } else if (read < rcv_next) {
        uint64_t end = std::min(rcv_next, read + static_cast<uint64_t>(rng.UniformInt(1, 8000)));
        emit(telemetry::RecordKind::kAppRead, read, end, 0);
        read = end;
        ++reads;
      }
    }
  }
};

void ExpectSameSeries(const TimeSeries& want, const TimeSeries& got, const char* what) {
  ASSERT_EQ(want.count(), got.count()) << what;
  for (size_t i = 0; i < want.count(); ++i) {
    ASSERT_EQ(want.points()[i].t, got.points()[i].t) << what << " point " << i;
    ASSERT_EQ(want.points()[i].v, got.points()[i].v) << what << " point " << i;
  }
}

// Every count, mean and series point bit for bit.
void ExpectSameAsReference(const BinarySearchTracer& reference, const GroundTruthTracer& tracer) {
  EXPECT_EQ(reference.sender.count(), tracer.sender_delay().count());
  EXPECT_EQ(reference.network.count(), tracer.network_delay().count());
  EXPECT_EQ(reference.receiver.count(), tracer.receiver_delay().count());
  EXPECT_EQ(reference.end_to_end.count(), tracer.end_to_end_delay().count());
  EXPECT_EQ(reference.sender.mean(), tracer.sender_delay().mean());
  EXPECT_EQ(reference.network.mean(), tracer.network_delay().mean());
  EXPECT_EQ(reference.receiver.mean(), tracer.receiver_delay().mean());
  EXPECT_EQ(reference.end_to_end.mean(), tracer.end_to_end_delay().mean());
  ExpectSameSeries(reference.sender_series, tracer.sender_delay_series(), "sender series");
  ExpectSameSeries(reference.receiver_series, tracer.receiver_delay_series(), "receiver series");
}

// The cursors over trimmed tables must find exactly what a binary search of
// the whole tables finds, whatever order the bytes come in.
TEST(GroundTruthTracerTest, CursorLookupsMatchBinarySearch) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RandomFlowStream stream(seed, 4000);
    ASSERT_GT(stream.retransmits, 0);
    ASSERT_GT(stream.out_of_order, 0);
    ASSERT_GT(stream.below_read, 0);
    SimTime mid = stream.records[stream.records.size() / 2].t;
    for (SimTime record_from : {SimTime::Zero(), mid}) {
      GroundTruthTracer::Config config;
      config.record_from = record_from;
      GroundTruthTracer tracer(config);
      BinarySearchTracer reference(record_from);
      for (const telemetry::TraceRecord& r : stream.records) {
        tracer.OnRecord(r);
        reference.OnRecord(r);
      }
      SCOPED_TRACE(testing::Message() << "seed " << seed << " from " << record_from.nanos());
      // Reads that span several arrivals sample each of them.
      ASSERT_GT(reference.receiver.count(), static_cast<size_t>(stream.reads));
      ExpectSameAsReference(reference, tracer);
      // Below the live window WriteTimeOf says no; from the read point up
      // it answers as the whole table does.
      for (uint64_t byte = 0; byte < 400'000; byte += 997) {
        SimTime want;
        SimTime got;
        bool found = tracer.WriteTimeOf(byte, &got);
        if (byte >= stream.read) {
          ASSERT_EQ(reference.WriteTimeOf(byte, &want), found) << byte;
        }
        ASSERT_TRUE(!found || (reference.WriteTimeOf(byte, &want) && want == got)) << byte;
      }
    }
  }
}

TEST(GroundTruthTracerTest, EndToEndConsistencyOnLiveFlow) {
  PathConfig path;
  Testbed bed(3, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  GroundTruthTracer tracer;
  BinarySearchTracer reference(SimTime::Zero());
  for (telemetry::RecordSink* sink : {static_cast<telemetry::RecordSink*>(&tracer),
                                      static_cast<telemetry::RecordSink*>(&reference)}) {
    flow.sender->telemetry().AttachSink(sink);
    flow.receiver->telemetry().AttachSink(sink);
  }
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(10.0));
  ASSERT_GT(tracer.end_to_end_delay().count(), 100u);
  // The tracer keeps what the every-sample reference keeps, whose samples
  // hold the invariants: components non-negative, network >= one-way floor
  // 25 ms.
  ExpectSameAsReference(reference, tracer);
  EXPECT_GE(reference.sender.Quantile(0.0), 0.0);
  EXPECT_GE(reference.network.Quantile(0.0), 0.025);
  EXPECT_GE(reference.receiver.Quantile(0.0), 0.0);
  GroundTruthTracer::Composition c = tracer.MeanComposition();
  EXPECT_NEAR(c.total_s, tracer.end_to_end_delay().mean(), c.total_s * 0.25);
}

// Counts two things the tracer's contract allows and TcpSocket does not
// emit: an arrival that starts below the read point (the receiver reports
// arrivals from rcv_nxt up, and reads never pass it), and a transmission
// below the highest one so far that carries no retransmit flag.
struct TcpPremiseCounter : telemetry::RecordSink {
  uint64_t read_end = 0;
  uint64_t tx_end = 0;
  uint64_t arrivals = 0;
  uint64_t arrivals_below_read = 0;
  uint64_t unflagged_resends = 0;

  void OnRecord(const telemetry::TraceRecord& r) override {
    switch (r.kind) {
      case telemetry::RecordKind::kTcpTransmit:
        if ((r.flags & telemetry::kFlagRetransmit) == 0 && r.u.range.begin < tx_end) {
          ++unflagged_resends;
        }
        tx_end = std::max(tx_end, r.u.range.end);
        break;
      case telemetry::RecordKind::kTcpRxSegment:
        ++arrivals;
        if (r.u.range.begin < read_end) {
          ++arrivals_below_read;
        }
        break;
      case telemetry::RecordKind::kAppRead:
        read_end = std::max(read_end, r.u.range.end);
        break;
      default:
        break;
    }
  }
};

// A real flow on a lossy path: retransmissions, duplicates and out-of-order
// arrivals, as TCP makes them. TCP makes no arrival below the read point and
// no unflagged resend, which the counter checks.
TEST(GroundTruthTracerTest, LossyFlowMatchesWholeTables) {
  PathConfig path;
  path.loss_probability = 0.02;
  Testbed bed(6, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  GroundTruthTracer::Config config;
  config.record_from = Sec(1.0);
  GroundTruthTracer tracer(config);
  BinarySearchTracer reference(config.record_from);
  TcpPremiseCounter premise;
  for (telemetry::RecordSink* sink : {static_cast<telemetry::RecordSink*>(&tracer),
                                      static_cast<telemetry::RecordSink*>(&reference),
                                      static_cast<telemetry::RecordSink*>(&premise)}) {
    flow.sender->telemetry().AttachSink(sink);
    flow.receiver->telemetry().AttachSink(sink);
  }
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(20.0));
  ASSERT_GT(flow.sender->total_retransmits(), 10u);
  ASSERT_GT(reference.receiver.count(), 1000u);
  ExpectSameAsReference(reference, tracer);
  EXPECT_GE(reference.network.Quantile(0.0), 0.025);
  EXPECT_GT(premise.arrivals, 1000u);
  EXPECT_EQ(premise.arrivals_below_read, 0u);
  EXPECT_EQ(premise.unflagged_resends, 0u);
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
