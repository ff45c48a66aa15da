// Seeded-determinism regression test: runs the same scenario twice with the
// same seed and byte-compares the serialized event traces. Any wall-clock
// read, unseeded RNG, or iteration-order dependence in the simulator shows up
// here as a trace diff (tools/lint_sim.py catches the static cases; this
// catches the rest).

#include <gtest/gtest.h>

#include <deque>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "src/evloop/event_loop.h"
#include "src/tcpsim/testbed.h"
#include "src/trace/ground_truth.h"
#include "src/trace/sojourn_sink.h"

namespace element {
namespace {

SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

void SerializeSeries(std::ostringstream& os, const char* label, const TimeSeries& series) {
  os << label << " n=" << series.count() << '\n';
  for (const TimeSeries::Point& p : series.points()) {
    os << p.t.nanos() << ' ' << p.v << '\n';
  }
}

// One bulk transfer over a jittery, lossy wifi-profile path with a sojourn
// probe on the bottleneck — enough stochastic machinery (link
// jitter, loss coin flips, app wakeup latency) that any nondeterminism
// perturbs the trace within milliseconds of sim time.
std::string RunScenarioTrace(uint64_t seed) {
  PathConfig path = WifiProfile();
  Testbed bed(seed, path);
  SojournSink bottleneck(/*source=*/0);
  bed.spine().AttachSink(&bottleneck);

  GroundTruthTracer ground_truth;
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  flow.sender->telemetry().AttachSink(&ground_truth);
  flow.receiver->telemetry().AttachSink(&ground_truth);

  constexpr uint64_t kTotalBytes = 3 * 1000 * 1000;
  auto pump = [&] {
    while (flow.sender->app_bytes_written() < kTotalBytes) {
      size_t want = static_cast<size_t>(kTotalBytes - flow.sender->app_bytes_written());
      if (flow.sender->Write(want) == 0) {
        break;
      }
    }
  };
  flow.sender->SetEstablishedCallback(pump);
  flow.sender->SetWritableCallback(pump);
  flow.receiver->SetReadableCallback([&] { flow.receiver->Read(1 << 20); });

  bed.loop().RunUntil(Sec(20.0));

  std::ostringstream os;
  os << std::setprecision(17);  // round-trip exact doubles; diffs are real
  os << "processed_events=" << bed.loop().processed_events() << '\n';
  os << "bytes_read=" << flow.receiver->app_bytes_read() << '\n';
  os << "retransmits=" << flow.sender->total_retransmits() << '\n';

  const QdiscStats& qs = bed.path().forward().qdisc().stats();
  os << "qdisc enq=" << qs.enqueued_packets << " deq=" << qs.dequeued_packets
     << " drop=" << qs.dropped_packets << " enq_b=" << qs.enqueued_bytes
     << " deq_b=" << qs.dequeued_bytes << '\n';

  SerializeSeries(os, "bottleneck_sojourn", bottleneck.series());
  SerializeSeries(os, "sender_delay", ground_truth.sender_delay_series());
  SerializeSeries(os, "receiver_delay", ground_truth.receiver_delay_series());
  return os.str();
}

// Cancel-heavy variant: exercises the event core's O(log n) in-place
// cancellation and Timer re-arms under churn. The lossy wifi path keeps the
// TCP RTO / delayed-ACK / pacing timers restarting, while an app-level storm
// arms, cancels and destroys batches of far-future timers and re-arms one
// Timer every millisecond. Heap removals from arbitrary positions must not
// perturb the (time, seq) fire order: two runs with the same seed must be
// byte-identical.
std::string RunCancelHeavyTrace(uint64_t seed) {
  PathConfig path = WifiProfile();
  Testbed bed(seed, path);
  SojournSink bottleneck(/*source=*/0);
  bed.spine().AttachSink(&bottleneck);

  GroundTruthTracer ground_truth;
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  flow.sender->telemetry().AttachSink(&ground_truth);
  flow.receiver->telemetry().AttachSink(&ground_truth);

  constexpr uint64_t kTotalBytes = 2 * 1000 * 1000;
  auto pump = [&] {
    while (flow.sender->app_bytes_written() < kTotalBytes) {
      size_t want = static_cast<size_t>(kTotalBytes - flow.sender->app_bytes_written());
      if (flow.sender->Write(want) == 0) {
        break;
      }
    }
  };
  flow.sender->SetEstablishedCallback(pump);
  flow.sender->SetWritableCallback(pump);
  flow.receiver->SetReadableCallback([&] { flow.receiver->Read(1 << 20); });

  EventLoop& loop = bed.loop();
  uint64_t storm_fires = 0;
  std::deque<Timer> parked;
  Timer rearm(&loop, [&storm_fires] { ++storm_fires; });
  PeriodicTimer storm(&loop, TimeDelta::FromMillis(1), [&] {
    // Arm a batch of far-future timers, then cancel and destroy most of them
    // so the heap sees removals from arbitrary interior positions every tick.
    for (int i = 0; i < 8; ++i) {
      parked.emplace_back(&loop, [] {});
      parked.back().RestartAfter(TimeDelta::FromSecondsInt(3600));
    }
    for (int i = 0; i < 7; ++i) {
      parked.back().Cancel();
      parked.pop_back();
    }
    // And keep one Timer perpetually re-armed past its old deadline.
    rearm.RestartAfter(TimeDelta::FromMicros(1500));
  });
  storm.Start();

  loop.RunUntil(Sec(15.0));
  storm.Stop();
  rearm.Cancel();
  for (Timer& t : parked) {
    t.Cancel();
  }

  std::ostringstream os;
  os << std::setprecision(17);
  os << "processed_events=" << loop.processed_events() << '\n';
  os << "storm_fires=" << storm_fires << '\n';
  os << "pending_after_drain=" << loop.pending_events() << '\n';
  os << "bytes_read=" << flow.receiver->app_bytes_read() << '\n';
  os << "retransmits=" << flow.sender->total_retransmits() << '\n';
  SerializeSeries(os, "bottleneck_sojourn", bottleneck.series());
  SerializeSeries(os, "sender_delay", ground_truth.sender_delay_series());
  SerializeSeries(os, "receiver_delay", ground_truth.receiver_delay_series());
  return os.str();
}

TEST(DeterminismTest, SameSeedProducesByteIdenticalTrace) {
  std::string first = RunScenarioTrace(42);
  std::string second = RunScenarioTrace(42);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, TraceIsNonTrivialAndSeedSensitive) {
  std::string a = RunScenarioTrace(42);
  std::string b = RunScenarioTrace(43);
  // The scenario must actually exercise the stochastic path: different seeds
  // must diverge, otherwise the run-twice comparison proves nothing.
  EXPECT_NE(a, b);
}

TEST(DeterminismTest, CancelHeavyScenarioIsByteIdenticalAcrossRuns) {
  std::string first = RunCancelHeavyTrace(1234);
  std::string second = RunCancelHeavyTrace(1234);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, CancelHeavyScenarioIsSeedSensitive) {
  EXPECT_NE(RunCancelHeavyTrace(1234), RunCancelHeavyTrace(1235));
}

}  // namespace
}  // namespace element
