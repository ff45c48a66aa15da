// Tests for link models, the rate-serializing Pipe, its DelayLine and qdisc
// bypass, and the DuplexPath demux.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/netsim/link_model.h"
#include "src/netsim/pfifo_fast.h"
#include "src/netsim/pipe.h"
#include "src/netsim/qdisc_factory.h"
#include "src/netsim/trace_link.h"
#include "src/telemetry/spine.h"

namespace element {
namespace {

class CollectorSink : public PacketSink {
 public:
  explicit CollectorSink(EventLoop* loop) : loop_(loop) {}
  void Deliver(Packet pkt) override {
    arrival_times.push_back(loop_->now());
    packets.push_back(std::move(pkt));
  }
  std::vector<SimTime> arrival_times;
  std::vector<Packet> packets;

 private:
  EventLoop* loop_;
};

Packet MakePacket(uint32_t size, uint64_t flow = 1) {
  Packet p;
  p.flow_id = flow;
  p.size_bytes = size;
  return p;
}

// The rate the stepped link gave before fixed, stepped and trace links became
// one class: it walked the steps, and a schedule spanning no time gave 0.
DataRate OldSteppedRate(const std::vector<ScheduledLinkModel::Step>& steps, SimTime now) {
  TimeDelta cycle = TimeDelta::Zero();
  for (const ScheduledLinkModel::Step& s : steps) {
    cycle += s.duration;
  }
  if (steps.empty() || cycle <= TimeDelta::Zero()) {
    return DataRate::Zero();
  }
  int64_t pos = now.nanos() % cycle.nanos();
  for (const ScheduledLinkModel::Step& s : steps) {
    if (pos < s.duration.nanos()) {
      return s.rate;
    }
    pos -= s.duration.nanos();
  }
  return steps.back().rate;
}

// The rate the trace link gave: the last point at or before `now` within a
// cycle that ends at the last point, the first point's rate before it.
DataRate OldTraceRate(const std::vector<TracePoint>& trace, SimTime now) {
  if (trace.empty()) {
    return DataRate::Zero();
  }
  int64_t pos_ns = now.nanos();
  int64_t cycle_ns = trace.back().at.nanos();
  if (cycle_ns > 0) {
    pos_ns %= cycle_ns;
  }
  auto it = std::upper_bound(trace.begin(), trace.end(), SimTime::FromNanos(pos_ns),
                             [](SimTime t, const TracePoint& p) { return t < p.at; });
  return it == trace.begin() ? trace.front().rate : (it - 1)->rate;
}

struct ScheduleCase {
  std::string name;
  // A trace replayed through ScheduleFromTrace; when empty, `steps` is the
  // schedule, and one zero-length step stands for the one-rate constructor.
  std::vector<TracePoint> trace;
  std::vector<ScheduledLinkModel::Step> steps;
  double loss = 0.0;
};

void PrintTo(const ScheduleCase& c, std::ostream* os) { *os << c.name; }

std::vector<ScheduleCase> ScheduleCases() {
  Rng rng(42);
  return {
      {"fig08",
       {},
       {{TimeDelta::FromSecondsInt(20), DataRate::Mbps(10)},
        {TimeDelta::FromSecondsInt(20), DataRate::Mbps(50)}}},
      {"csv", ParseTraceCsv("t_seconds,mbps\n0.5,10\n1,20\n1,30\n2.25,5\n3,40\n"), {}},
      {"synthesized",
       SynthesizeCellularTrace(&rng, DataRate::Mbps(15), TimeDelta::FromSecondsInt(10)),
       {}},
      {"one_row", ParseTraceCsv("2,7\n"), {}},
      {"loss", {}, {{TimeDelta::Zero(), DataRate::Mbps(8)}}, 0.5},
  };
}

class ScheduledLinkModelTest : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(ScheduledLinkModelTest, MatchesTheOldLinks) {
  const ScheduleCase& c = GetParam();
  const TimeDelta delay = TimeDelta::FromMillis(10);
  std::vector<ScheduledLinkModel::Step> steps =
      c.trace.empty() ? c.steps : ScheduleFromTrace(c.trace);
  const bool one_rate = c.trace.empty() && steps.size() == 1 && steps[0].duration.IsZero();
  std::unique_ptr<ScheduledLinkModel> link =
      one_rate ? std::make_unique<ScheduledLinkModel>(steps[0].rate, delay, c.loss)
               : std::make_unique<ScheduledLinkModel>(steps, delay, c.loss);
  EXPECT_EQ(link->PropagationDelay().nanos(), delay.nanos());

  // Every step boundary and trace point, +-1 ns, over three cycles.
  TimeDelta cycle = TimeDelta::Zero();
  std::vector<int64_t> marks = {0};
  for (const ScheduledLinkModel::Step& s : steps) {
    cycle += s.duration;
    marks.push_back(cycle.nanos());
  }
  for (const TracePoint& p : c.trace) {
    marks.push_back(p.at.nanos());
  }
  const int64_t period = cycle > TimeDelta::Zero() ? cycle.nanos() : 1'000'000'000;
  for (int64_t k = 0; k < 3; ++k) {
    for (int64_t mark : marks) {
      for (int64_t d = -1; d <= 1; ++d) {
        const int64_t ns = k * period + mark + d;
        if (ns < 0) {
          continue;
        }
        const SimTime t = SimTime::FromNanos(ns);
        const DataRate rate = link->RateAt(t);
        if (!c.trace.empty()) {
          EXPECT_EQ(rate.bps(), OldTraceRate(c.trace, t).bps()) << "trace at " << ns << " ns";
        }
        if (one_rate) {
          EXPECT_EQ(rate.bps(), steps[0].rate.bps()) << "one rate at " << ns << " ns";
        } else if (cycle > TimeDelta::Zero()) {
          EXPECT_EQ(rate.bps(), OldSteppedRate(steps, t).bps()) << "steps at " << ns << " ns";
        }
      }
    }
  }

  // Wire loss draws from the pipe's Rng exactly as before: one Bernoulli
  // per packet when the loss is positive, none otherwise.
  Rng rng(7);
  Rng reference(7);
  int drops = 0;
  for (int i = 0; i < 10000; ++i) {
    const bool drop = link->DropOnWire(rng, SimTime::Zero());
    EXPECT_EQ(drop, c.loss > 0.0 && reference.Bernoulli(c.loss));
    drops += drop;
  }
  EXPECT_EQ(rng.Uniform(0.0, 1.0), reference.Uniform(0.0, 1.0));
  EXPECT_NEAR(drops / 10000.0, c.loss, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Schedules, ScheduledLinkModelTest, ::testing::ValuesIn(ScheduleCases()));

// The one-rate constructor stands in for the deleted FixedLinkModel; these
// keep that link's checks under their old names.
TEST(FixedLinkModelTest, RateAndDelay) {
  ScheduledLinkModel link(DataRate::Mbps(8), TimeDelta::FromMillis(10));
  EXPECT_DOUBLE_EQ(link.RateAt(SimTime::Zero()).ToMbps(), 8.0);
  EXPECT_EQ(link.PropagationDelay(), TimeDelta::FromMillis(10));
  Rng rng(1);
  EXPECT_FALSE(link.DropOnWire(rng, SimTime::Zero()));
}

TEST(FixedLinkModelTest, LossProbability) {
  ScheduledLinkModel link(DataRate::Mbps(8), TimeDelta::Zero(), 0.5);
  Rng rng(42);
  int drops = 0;
  for (int i = 0; i < 10000; ++i) {
    drops += link.DropOnWire(rng, SimTime::Zero());
  }
  EXPECT_NEAR(drops / 10000.0, 0.5, 0.03);
}

TEST(ScheduledLinkModelDeathTest, RejectsEmptyAndNegativeSchedules) {
  using Steps = std::vector<ScheduledLinkModel::Step>;
  EXPECT_DEATH(ScheduledLinkModel(Steps{}, TimeDelta::Zero()), "at least one step");
  EXPECT_DEATH(
      ScheduledLinkModel(Steps{{TimeDelta::FromNanos(-1), DataRate::Mbps(1)}}, TimeDelta::Zero()),
      "negative schedule step: -1 ns");
}

TEST(WifiLinkModelTest, RateStaysWithinLadder) {
  WifiLinkModel link(Rng(3), DataRate::Mbps(60));
  for (int s = 0; s < 600; ++s) {
    double mbps = link.RateAt(SimTime::FromNanos(int64_t(s) * 100'000'000)).ToMbps();
    EXPECT_GE(mbps, 60.0 * 0.35 - 1e-9);
    EXPECT_LE(mbps, 60.0 * 1.3 + 1e-9);
  }
}

TEST(LteLinkModelTest, RateBoundedByClamp) {
  LteLinkModel link(Rng(4), DataRate::Mbps(25));
  for (int s = 0; s < 600; ++s) {
    double mbps = link.RateAt(SimTime::FromNanos(int64_t(s) * 100'000'000)).ToMbps();
    EXPECT_GE(mbps, 25.0 * 0.4 - 1e-9);
    EXPECT_LE(mbps, 25.0 * 1.6 + 1e-9);
  }
}

TEST(PipeTest, SerializationAndPropagationTiming) {
  EventLoop loop;
  CollectorSink sink(&loop);
  DelayLine line(&loop);
  Pipe pipe(&loop, Rng(1), std::make_unique<PfifoFast>(100),
            std::make_unique<ScheduledLinkModel>(DataRate::Mbps(10), TimeDelta::FromMillis(25)),
            &line, &sink);
  // 1250 bytes at 10 Mbps = 1 ms serialization + 25 ms propagation.
  pipe.Send(MakePacket(1250));
  loop.Run();
  ASSERT_EQ(sink.arrival_times.size(), 1u);
  EXPECT_EQ(sink.arrival_times[0].nanos(), 26'000'000);
}

TEST(PipeTest, BackToBackPacketsSpacedBySerialization) {
  EventLoop loop;
  CollectorSink sink(&loop);
  DelayLine line(&loop);
  Pipe pipe(&loop, Rng(1), std::make_unique<PfifoFast>(100),
            std::make_unique<ScheduledLinkModel>(DataRate::Mbps(10), TimeDelta::Zero()), &line,
            &sink);
  for (int i = 0; i < 5; ++i) {
    pipe.Send(MakePacket(1250));
  }
  loop.Run();
  ASSERT_EQ(sink.arrival_times.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sink.arrival_times[static_cast<size_t>(i)].nanos(), (i + 1) * 1'000'000);
  }
}

TEST(PipeTest, DeliveryOrderPreservedUnderJitter) {
  // A jittery link must not reorder packets.
  class JitteryLink : public ScheduledLinkModel {
   public:
    JitteryLink() : ScheduledLinkModel(DataRate::Mbps(100), TimeDelta::FromMillis(5)) {}
    TimeDelta JitterFor(Rng& rng) override {
      return TimeDelta::FromSeconds(rng.Exponential(0.002));
    }
  };
  EventLoop loop;
  CollectorSink sink(&loop);
  DelayLine line(&loop);
  Pipe pipe(&loop, Rng(7), std::make_unique<PfifoFast>(1000),
            std::make_unique<JitteryLink>(), &line, &sink);
  for (uint64_t i = 0; i < 200; ++i) {
    Packet p = MakePacket(1500);
    p.flow_id = i;
    pipe.Send(std::move(p));
  }
  loop.Run();
  ASSERT_EQ(sink.packets.size(), 200u);
  for (uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(sink.packets[i].flow_id, i);
    if (i > 0) {
      EXPECT_GE(sink.arrival_times[i], sink.arrival_times[i - 1]);
    }
  }
}

TEST(PipeTest, WireLossCounted) {
  EventLoop loop;
  CollectorSink sink(&loop);
  DelayLine line(&loop);
  Pipe pipe(&loop, Rng(5), std::make_unique<PfifoFast>(10000),
            std::make_unique<ScheduledLinkModel>(DataRate::Mbps(100), TimeDelta::Zero(), 0.3),
            &line, &sink);
  for (int i = 0; i < 2000; ++i) {
    pipe.Send(MakePacket(1500));
  }
  loop.Run();
  // Every packet leaves the queue (the limit is roomy), so what the sink
  // misses was lost on the wire.
  ASSERT_EQ(pipe.qdisc().stats().dequeued_packets, 2000u);
  double lost = 1.0 - static_cast<double>(sink.packets.size()) / 2000.0;
  EXPECT_NEAR(lost, 0.3, 0.05);
}

TEST(PipeTest, BacklogDelayReflectsQueue) {
  EventLoop loop;
  CollectorSink sink(&loop);
  DelayLine line(&loop);
  Pipe pipe(&loop, Rng(1), std::make_unique<PfifoFast>(1000),
            std::make_unique<ScheduledLinkModel>(DataRate::Mbps(10), TimeDelta::Zero()), &line,
            &sink);
  for (int i = 0; i < 11; ++i) {
    pipe.Send(MakePacket(1250));
  }
  // One packet is in transmission; 10 are queued: 10 * 1 ms.
  EXPECT_NEAR(pipe.CurrentBacklogDelay().ToSeconds() * 1e3, 10.0, 0.01);
}

// One delivery, as a sink saw it. Every sink of a run logs into one vector,
// so the log holds the order across pipes as well as within each.
struct Delivery {
  int sink = 0;
  uint64_t flow_id = 0;
  SimTime at;
  bool operator==(const Delivery&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Delivery& d) {
  return os << "{sink " << d.sink << ", flow " << d.flow_id << ", " << d.at.nanos() << " ns}";
}

class LoggingSink : public PacketSink {
 public:
  LoggingSink(EventLoop* loop, int tag, std::vector<Delivery>* log)
      : loop_(loop), tag_(tag), log_(log) {}
  void Deliver(Packet pkt) override { log_->push_back({tag_, pkt.flow_id, loop_->now()}); }

 private:
  EventLoop* loop_;
  int tag_;
  std::vector<Delivery>* log_;
};

// A packet handed to pipe `pipe` at `at`; `flow_id` names it in the log.
struct Arrival {
  SimTime at;
  int pipe = 0;
  uint32_t size = 0;
  uint64_t flow_id = 0;
};

// Feeds `arrivals` (sorted by time) to three pipes with one 10 ms delay and
// 10, 20 and 40 Mbps lines, each delivering to its own sink. With `shared`
// the three pipes fly their packets on one DelayLine, otherwise each on its
// own. Returns every delivery in the order the sinks saw them.
std::vector<Delivery> RunThreePipes(const std::vector<Arrival>& arrivals, bool shared) {
  constexpr int kPipes = 3;
  EventLoop loop;
  std::vector<Delivery> log;
  std::vector<std::unique_ptr<DelayLine>> lines;
  std::vector<std::unique_ptr<LoggingSink>> sinks;
  std::vector<std::unique_ptr<Pipe>> pipes;
  for (int i = 0; i < kPipes; ++i) {
    if (!shared || i == 0) {
      lines.push_back(std::make_unique<DelayLine>(&loop));
    }
    sinks.push_back(std::make_unique<LoggingSink>(&loop, i, &log));
    pipes.push_back(std::make_unique<Pipe>(
        &loop, Rng(static_cast<uint64_t>(i) + 1), std::make_unique<PfifoFast>(1000),
        std::make_unique<ScheduledLinkModel>(DataRate::Mbps(10 << i), TimeDelta::FromMillis(10)),
        lines.back().get(), sinks.back().get()));
  }
  size_t next = 0;
  Timer feeder(&loop, [&] {
    for (; next < arrivals.size() && arrivals[next].at == loop.now(); ++next) {
      const Arrival& a = arrivals[next];
      pipes[static_cast<size_t>(a.pipe)]->Send(MakePacket(a.size, a.flow_id));
    }
    if (next < arrivals.size()) {
      feeder.Restart(arrivals[next].at);
    }
  });
  feeder.Restart(arrivals.front().at);
  loop.Run();
  return log;
}

SimTime Us(int64_t us) { return SimTime::FromNanos(us * 1000); }

// Two deliveries in the same nanosecond from different pipes leave in the
// order they were pushed, on a shared line as on separate ones. Pipe 0
// (10 Mbps) serializes two 1250-byte packets, done at 1 and 2 ms; pipe 1
// (20 Mbps) gets one at 1.5 ms, also done at 2 ms but pushed after pipe 0's
// second, whose transmit was armed earlier. Both land at 12 ms. On separate
// lines pipe 0's second packet is not its line's head when pipe 1 pushes, so
// a line that dropped the stored sequence numbers would deliver pipe 1 first.
TEST(DelayLineTest, SameNanosecondDeliveriesKeepPushOrder) {
  const std::vector<Arrival> arrivals = {
      {Us(0), 0, 1250, 1}, {Us(0), 0, 1250, 2}, {Us(1500), 1, 1250, 3}};
  const std::vector<Delivery> expected = {
      {0, 1, Us(11'000)}, {0, 2, Us(12'000)}, {1, 3, Us(12'000)}};
  EXPECT_EQ(RunThreePipes(arrivals, /*shared=*/false), expected);
  EXPECT_EQ(RunThreePipes(arrivals, /*shared=*/true), expected);
}

// A random mix on a 125 us grid, where transmit completions (and so
// deliveries) of different pipes often share a nanosecond: one shared line
// gives every sink the same packets at the same times in the same order as
// three separate lines.
TEST(DelayLineTest, SharedLineMatchesOneLinePerPipe) {
  Rng rng(23);
  std::vector<Arrival> arrivals;
  int64_t us = 0;
  for (uint64_t flow = 1; flow <= 600; ++flow) {
    us += 125 * rng.UniformInt(0, 3);
    arrivals.push_back({Us(us), static_cast<int>(rng.UniformInt(0, 2)),
                        static_cast<uint32_t>(625 * rng.UniformInt(1, 4)), flow});
  }
  std::vector<Delivery> separate = RunThreePipes(arrivals, /*shared=*/false);
  std::vector<Delivery> shared = RunThreePipes(arrivals, /*shared=*/true);
  ASSERT_EQ(separate.size(), arrivals.size());
  EXPECT_EQ(shared, separate);
  size_t same_ns_across_pipes = 0;
  for (size_t i = 1; i < separate.size(); ++i) {
    if (separate[i].at == separate[i - 1].at && separate[i].sink != separate[i - 1].sink) {
      ++same_ns_across_pipes;
    }
  }
  EXPECT_GT(same_ns_across_pipes, 10u);
}

#if ELEMENT_AUDITS_ENABLED
// Keys pushed onto a line must never decrease: a line shared by pipes with
// different delays would break that, and FifoTimer::Push stops the run.
TEST(DelayLineDeathTest, PushBeforeTheTailAborts) {
  EventLoop loop;
  CollectorSink sink(&loop);
  DelayLine line(&loop);
  line.Push(SimTime::FromNanos(2'000'000), &sink, MakePacket(100));
  EXPECT_DEATH(line.Push(SimTime::FromNanos(1'000'000), &sink, MakePacket(100)),
               "before the tail");
}
#endif

// Records every qdisc record a spine dispatches.
struct RecordLog : telemetry::RecordSink {
  std::vector<telemetry::TraceRecord> records;
  void OnRecord(const telemetry::TraceRecord& r) override { records.push_back(r); }
};

// A 10 Mbps pipe with no propagation delay over a pfifo_fast, bound to a
// recording spine.
struct RecordedPipe {
  EventLoop loop;
  CollectorSink sink{&loop};
  DelayLine line{&loop};
  telemetry::TelemetrySpine spine;
  RecordLog log;
  Pipe pipe{&loop, Rng(1), std::make_unique<PfifoFast>(100),
            std::make_unique<ScheduledLinkModel>(DataRate::Mbps(10), TimeDelta::Zero()), &line,
            &sink};

  RecordedPipe() {
    spine.AttachSink(&log);
    pipe.BindTelemetry(&spine, 0);
  }
};

// An arrival at an idle, empty pfifo_fast line bypasses the queue but is
// counted exactly as Enqueue then Dequeue count it: one enqueue and one
// dequeue record with sojourn 0, the same stats and the same stamp.
TEST(PfifoFastBypassTest, IdleArrivalCountsLikeTheQueue) {
  RecordedPipe rp;
  rp.loop.RunUntil(Us(500));
  rp.pipe.Send(MakePacket(1250, 7));

  PfifoFast reference(100);
  telemetry::TelemetrySpine ref_spine;
  RecordLog ref_log;
  ref_spine.AttachSink(&ref_log);
  reference.BindTelemetry(&ref_spine, 0);
  ASSERT_TRUE(reference.Enqueue(MakePacket(1250, 7), Us(500)));
  std::optional<Packet> ref_pkt = reference.Dequeue(Us(500));
  ASSERT_TRUE(ref_pkt.has_value());

  ASSERT_EQ(rp.log.records.size(), 2u);
  ASSERT_EQ(ref_log.records.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const telemetry::TraceRecord& got = rp.log.records[i];
    const telemetry::TraceRecord& want = ref_log.records[i];
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.t, want.t);
    EXPECT_EQ(got.flow_id, want.flow_id);
    EXPECT_EQ(got.size, want.size);
    EXPECT_EQ(got.flags, want.flags);
    EXPECT_EQ(got.u.range.aux, want.u.range.aux);
  }
  EXPECT_EQ(rp.log.records[0].kind, telemetry::RecordKind::kQdiscEnqueue);
  EXPECT_EQ(rp.log.records[1].kind, telemetry::RecordKind::kQdiscDequeue);
  EXPECT_EQ(rp.log.records[1].u.range.aux, 0u);  // sojourn

  const QdiscStats& got = rp.pipe.qdisc().stats();
  const QdiscStats& want = reference.stats();
  EXPECT_EQ(got.enqueued_packets, want.enqueued_packets);
  EXPECT_EQ(got.dequeued_packets, want.dequeued_packets);
  EXPECT_EQ(got.enqueued_bytes, want.enqueued_bytes);
  EXPECT_EQ(got.dequeued_bytes, want.dequeued_bytes);
  EXPECT_EQ(rp.pipe.qdisc().packet_count(), 0u);
  rp.pipe.qdisc().AuditConservation();

  rp.loop.Run();
  ASSERT_EQ(rp.sink.packets.size(), 1u);
  EXPECT_EQ(rp.sink.packets[0].enqueued, ref_pkt->enqueued);
  EXPECT_EQ(rp.sink.arrival_times[0], Us(1500));
}

// While the line is busy an arrival queues and leaves with the time it
// waited as its sojourn; and with packets queued, band priority still picks
// the next one to send.
TEST(PfifoFastBypassTest, BusyLineQueuesByBand) {
  RecordedPipe rp;
  Packet first = MakePacket(1250, 1);
  first.priority_band = 2;
  rp.pipe.Send(std::move(first));  // idle: bypasses, on the line until 1 ms
  rp.loop.RunUntil(Us(200));
  Packet low = MakePacket(1250, 2);
  low.priority_band = 2;
  rp.pipe.Send(std::move(low));
  Packet high = MakePacket(1250, 3);
  high.priority_band = 0;
  rp.pipe.Send(std::move(high));
  EXPECT_EQ(rp.pipe.qdisc().packet_count(), 2u);
  rp.loop.Run();

  ASSERT_EQ(rp.sink.packets.size(), 3u);
  EXPECT_EQ(rp.sink.packets[0].flow_id, 1u);
  EXPECT_EQ(rp.sink.packets[1].flow_id, 3u);  // band 0 overtakes band 2
  EXPECT_EQ(rp.sink.packets[2].flow_id, 2u);
  std::vector<uint64_t> sojourns;
  for (const telemetry::TraceRecord& r : rp.log.records) {
    if (r.kind == telemetry::RecordKind::kQdiscDequeue) {
      sojourns.push_back(r.u.range.aux);
    }
  }
  // Flow 3 waited 0.2 -> 1 ms, flow 2 0.2 -> 2 ms.
  EXPECT_EQ(sojourns, (std::vector<uint64_t>{0, 800'000, 1'800'000}));
  EXPECT_EQ(rp.pipe.qdisc().stats().enqueued_packets, 3u);
  EXPECT_EQ(rp.pipe.qdisc().stats().dequeued_packets, 3u);
  rp.pipe.qdisc().AuditConservation();
}

// The AQMs keep state in Enqueue and Dequeue, so an idle, empty one never
// lets a packet bypass; neither does a pfifo_fast that admits nothing.
TEST(PfifoFastBypassTest, OnlyPfifoFastWithRoomBypasses) {
  Rng rng(3);
  for (QdiscType type :
       {QdiscType::kCoDel, QdiscType::kFqCoDel, QdiscType::kPie, QdiscType::kRed}) {
    std::unique_ptr<Qdisc> q = MakeBottleneckQdisc(type, 100, /*ecn=*/false, &rng);
    Packet pkt = MakePacket(1500);
    EXPECT_FALSE(q->Bypass(pkt, Us(10))) << q->name();
    EXPECT_EQ(q->stats().enqueued_packets, 0u) << q->name();
  }
  PfifoFast full(0);
  Packet pkt = MakePacket(1500);
  EXPECT_FALSE(full.Bypass(pkt, Us(10)));
  PfifoFast roomy(10);
  EXPECT_TRUE(roomy.Bypass(pkt, Us(10)));
  EXPECT_EQ(pkt.enqueued, Us(10));
  ASSERT_TRUE(roomy.Enqueue(MakePacket(1500), Us(10)));
  EXPECT_FALSE(roomy.Bypass(pkt, Us(10)));  // not empty
}

TEST(DemuxTest, RoutesByFlowId) {
  EventLoop loop;
  CollectorSink a(&loop);
  CollectorSink b(&loop);
  Demux demux;
  demux.Register(1, &a);
  demux.Register(2, &b);
  demux.Deliver(MakePacket(100, 1));
  demux.Deliver(MakePacket(100, 2));
  demux.Deliver(MakePacket(100, 3));  // unroutable
  EXPECT_EQ(a.packets.size(), 1u);
  EXPECT_EQ(b.packets.size(), 1u);
  EXPECT_EQ(demux.unroutable_packets(), 1u);
  demux.Unregister(2);
  demux.Deliver(MakePacket(100, 2));
  EXPECT_EQ(demux.unroutable_packets(), 2u);
  // A freed flow id may be registered again; an unknown one unregisters as
  // a no-op.
  demux.Register(2, &b);
  demux.Unregister(99);
  EXPECT_EQ(demux.Find(1), &a);
  EXPECT_EQ(demux.Find(2), &b);
  EXPECT_EQ(demux.Find(99), nullptr);
  demux.Deliver(MakePacket(100, 2));
  EXPECT_EQ(b.packets.size(), 2u);
  EXPECT_EQ(demux.unroutable_packets(), 2u);
  // An id far above every registered one is unroutable, and looking it up
  // does not grow the table.
  const size_t table = demux.table_size();
  demux.Deliver(MakePacket(100, uint64_t{1} << 40));
  EXPECT_EQ(demux.Find(uint64_t{1} << 40), nullptr);
  EXPECT_EQ(demux.unroutable_packets(), 3u);
  EXPECT_EQ(demux.table_size(), table);
}

TEST(DuplexPathTest, ForwardAndReverseIndependent) {
  EventLoop loop;
  Rng rng(9);
  DuplexPath path(
      &loop, &rng, std::make_unique<PfifoFast>(100),
      std::make_unique<ScheduledLinkModel>(DataRate::Mbps(10), TimeDelta::FromMillis(5)),
      std::make_unique<PfifoFast>(100),
      std::make_unique<ScheduledLinkModel>(DataRate::Mbps(50), TimeDelta::FromMillis(5)));
  CollectorSink at_server(&loop);
  CollectorSink at_client(&loop);
  uint64_t flow = path.AllocateFlowId();
  path.server_demux().Register(flow, &at_server);
  path.client_demux().Register(flow, &at_client);
  Packet fwd = MakePacket(1250, flow);
  path.forward().Send(std::move(fwd));
  Packet rev = MakePacket(1250, flow);
  path.reverse().Send(std::move(rev));
  loop.Run();
  EXPECT_EQ(at_server.packets.size(), 1u);
  EXPECT_EQ(at_client.packets.size(), 1u);
  // Forward at 10 Mbps: 1 ms + 5 ms; reverse at 50 Mbps: 0.2 ms + 5 ms.
  EXPECT_EQ(at_server.arrival_times[0].nanos(), 6'000'000);
  EXPECT_EQ(at_client.arrival_times[0].nanos(), 5'200'000);
}

TEST(DuplexPathTest, FlowIdsUnique) {
  EventLoop loop;
  Rng rng(9);
  DuplexPath path(&loop, &rng, std::make_unique<PfifoFast>(10),
                  std::make_unique<ScheduledLinkModel>(DataRate::Mbps(1), TimeDelta::Zero()),
                  std::make_unique<PfifoFast>(10),
                  std::make_unique<ScheduledLinkModel>(DataRate::Mbps(1), TimeDelta::Zero()));
  uint64_t a = path.AllocateFlowId();
  uint64_t b = path.AllocateFlowId();
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace element
