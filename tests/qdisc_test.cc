// Tests for the queueing disciplines: pfifo_fast, CoDel, FQ-CoDel, PIE, RED —
// including the conservation invariant (enqueued = dequeued + dropped +
// queued) checked property-style across all disciplines.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/netsim/codel.h"
#include "src/netsim/fq_codel.h"
#include "src/netsim/pfifo_fast.h"
#include "src/netsim/pie.h"
#include "src/netsim/red.h"
#include "src/telemetry/spine.h"

namespace element {
namespace {

Packet MakePacket(uint64_t flow, uint32_t size = 1500, uint32_t band = 1) {
  Packet p;
  p.flow_id = flow;
  p.size_bytes = size;
  p.priority_band = band;
  return p;
}

SimTime At(int64_t ms) { return SimTime::FromNanos(ms * 1'000'000); }

TEST(PfifoFastTest, FifoOrderWithinBand) {
  PfifoFast q(10);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(q.Enqueue(MakePacket(i), At(0)));
  }
  for (uint64_t i = 0; i < 5; ++i) {
    auto p = q.Dequeue(At(1));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->flow_id, i);
  }
  EXPECT_FALSE(q.Dequeue(At(1)).has_value());
}

TEST(PfifoFastTest, StrictPriorityAcrossBands) {
  PfifoFast q(10);
  ASSERT_TRUE(q.Enqueue(MakePacket(1, 100, /*band=*/2), At(0)));
  ASSERT_TRUE(q.Enqueue(MakePacket(2, 100, /*band=*/0), At(0)));
  ASSERT_TRUE(q.Enqueue(MakePacket(3, 100, /*band=*/1), At(0)));
  EXPECT_EQ(q.Dequeue(At(0))->flow_id, 2u);  // band 0 first
  EXPECT_EQ(q.Dequeue(At(0))->flow_id, 3u);  // then band 1
  EXPECT_EQ(q.Dequeue(At(0))->flow_id, 1u);  // then band 2
}

TEST(PfifoFastTest, TailDropAtLimit) {
  PfifoFast q(3);
  EXPECT_TRUE(q.Enqueue(MakePacket(1), At(0)));
  EXPECT_TRUE(q.Enqueue(MakePacket(2), At(0)));
  EXPECT_TRUE(q.Enqueue(MakePacket(3), At(0)));
  EXPECT_FALSE(q.Enqueue(MakePacket(4), At(0)));
  EXPECT_EQ(q.stats().dropped_packets, 1u);
  EXPECT_EQ(q.packet_count(), 3u);
}

TEST(PfifoFastTest, ByteCountTracksContents) {
  PfifoFast q(10);
  q.Enqueue(MakePacket(1, 1000), At(0));
  q.Enqueue(MakePacket(2, 500), At(0));
  EXPECT_EQ(q.byte_count(), 1500);
  q.Dequeue(At(0));
  EXPECT_EQ(q.byte_count(), 500);
}

TEST(CoDelTest, NoDropsWhenSojournBelowTarget) {
  CoDel q;
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(q.Enqueue(MakePacket(1), At(round)));
    ASSERT_TRUE(q.Enqueue(MakePacket(1), At(round)));
    // Dequeued 2 ms later: sojourn well below the 5 ms target.
    EXPECT_TRUE(q.Dequeue(At(round + 2)).has_value());
    EXPECT_TRUE(q.Dequeue(At(round + 2)).has_value());
  }
  EXPECT_EQ(q.stats().dropped_packets, 0u);
}

TEST(CoDelTest, DropsAfterPersistentlyHighSojourn) {
  CoDel q;
  // Feed a standing queue: everything dequeues 50 ms after enqueue (>> 5 ms
  // target) for well over one 100 ms interval.
  int64_t t = 0;
  uint64_t drops_before = q.stats().dropped_packets;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(q.Enqueue(MakePacket(1), At(t)));
    ASSERT_TRUE(q.Enqueue(MakePacket(1), At(t)));
    q.Dequeue(At(t + 50));
    t += 5;
  }
  EXPECT_GT(q.stats().dropped_packets, drops_before + 3);
}

TEST(CoDelTest, EcnMarksInsteadOfDropping) {
  CoDel q;
  q.set_ecn_enabled(true);
  int64_t t = 0;
  int marked = 0;
  for (int i = 0; i < 400; ++i) {
    Packet p = MakePacket(1);
    p.ecn_capable = true;
    ASSERT_TRUE(q.Enqueue(std::move(p), At(t)));
    Packet filler = MakePacket(1);
    filler.ecn_capable = true;
    ASSERT_TRUE(q.Enqueue(std::move(filler), At(t)));
    auto out = q.Dequeue(At(t + 50));
    if (out.has_value() && out->ecn_marked) {
      ++marked;
    }
    t += 5;
  }
  EXPECT_GT(marked, 3);
  EXPECT_EQ(q.stats().dropped_packets, 0u);
  EXPECT_EQ(q.stats().ecn_marked_packets, static_cast<uint64_t>(marked));
}

TEST(CoDelTest, ControlLawAcceleratesDrops) {
  CoDelState state;
  // Persistently above target with a large standing queue.
  SimTime t = SimTime::Zero();
  int drops = 0;
  SimTime first_drop;
  SimTime fifth_drop;
  for (int i = 0; i < 3000; ++i) {
    if (state.ShouldDrop(TimeDelta::FromMillis(50), t, 100000)) {
      ++drops;
      if (drops == 1) {
        first_drop = t;
      }
      if (drops == 5) {
        fifth_drop = t;
        break;
      }
    }
    t += TimeDelta::FromMillis(1);
  }
  ASSERT_EQ(drops, 5);
  // Interval/sqrt(count) spacing: the gap from drop 1 to 5 must be well under
  // 4 full intervals.
  EXPECT_LT(fifth_drop - first_drop, TimeDelta::FromMillis(4 * 100));
}

TEST(FqCoDelTest, IsolatesFlowsRoundRobin) {
  FqCoDel q;
  // Flow 1 floods; flow 2 sends a little. DRR must interleave them.
  for (int i = 0; i < 50; ++i) {
    q.Enqueue(MakePacket(1, 1500), At(0));
  }
  for (int i = 0; i < 5; ++i) {
    q.Enqueue(MakePacket(2, 1500), At(0));
  }
  int flow2_in_first_10 = 0;
  for (int i = 0; i < 10; ++i) {
    auto p = q.Dequeue(At(1));
    ASSERT_TRUE(p.has_value());
    if (p->flow_id == 2) {
      ++flow2_in_first_10;
    }
  }
  EXPECT_GE(flow2_in_first_10, 4);
}

TEST(FqCoDelTest, DrainsCompletely) {
  FqCoDel q;
  for (uint64_t f = 0; f < 8; ++f) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(q.Enqueue(MakePacket(f), At(0)));
    }
  }
  size_t dequeued = 0;
  while (q.Dequeue(At(1)).has_value()) {
    ++dequeued;
  }
  EXPECT_EQ(dequeued, 80u);
  EXPECT_EQ(q.packet_count(), 0u);
  EXPECT_EQ(q.byte_count(), 0);
}

TEST(FqCoDelTest, OverLimitDropsFromFattestFlow) {
  FqCoDel q(20);
  for (int i = 0; i < 18; ++i) {
    q.Enqueue(MakePacket(1, 1500), At(0));
  }
  for (int i = 0; i < 4; ++i) {
    q.Enqueue(MakePacket(2, 300), At(0));
  }
  // The fat flow must have absorbed the drops.
  EXPECT_GT(q.stats().dropped_packets, 0u);
  size_t flow2 = 0;
  while (auto p = q.Dequeue(At(1))) {
    if (p->flow_id == 2) {
      ++flow2;
    }
  }
  EXPECT_EQ(flow2, 4u);
}

// At the limit, equal-byte queues tie, and the drop comes from the lowest
// bucket index, whichever queue got its first packet earlier.
TEST(FqCoDelTest, OverLimitTieDropsFromLowestBucket) {
  // FqCoDel's bucket hash, to pick two flows whose buckets are known.
  auto bucket = [](uint64_t flow) { return flow * 0x9E3779B97F4A7C15ull % 1024; };
  constexpr uint64_t kLow = 49;   // bucket 5
  constexpr uint64_t kHigh = 1;   // bucket 21
  constexpr uint64_t kOther = 2;  // bucket 42
  ASSERT_LT(bucket(kLow), bucket(kHigh));
  ASSERT_LT(bucket(kHigh), bucket(kOther));
  for (bool low_first : {false, true}) {
    SCOPED_TRACE(low_first ? "low bucket first" : "high bucket first");
    FqCoDel q(4);
    uint64_t first = low_first ? kLow : kHigh;
    uint64_t second = low_first ? kHigh : kLow;
    for (uint64_t flow : {first, first, second, second}) {
      ASSERT_TRUE(q.Enqueue(MakePacket(flow, 1000), At(0)));
    }
    // A smaller packet from a third flow: its own queue stays the thinnest.
    ASSERT_TRUE(q.Enqueue(MakePacket(kOther, 500), At(0)));
    EXPECT_EQ(q.stats().dropped_packets, 1u);
    std::map<uint64_t, int> dequeued;
    while (auto p = q.Dequeue(At(1))) {
      ++dequeued[p->flow_id];
    }
    EXPECT_EQ(dequeued[kLow], 1);
    EXPECT_EQ(dequeued[kHigh], 2);
    EXPECT_EQ(dequeued[kOther], 1);
  }
}

// Keeps every record a qdisc dispatches.
struct RecordLog : telemetry::RecordSink {
  std::vector<telemetry::TraceRecord> records;
  void OnRecord(const telemetry::TraceRecord& r) override { records.push_back(r); }
};

// An FQ-CoDel that carries one flow and never reaches its limit is CoDel: the
// same packets come out, are dropped and are marked at the same times. Fed a
// standing queue (drops and marks), a drain to empty, a second overload, a
// drain with no arrivals, and then a one-packet standing queue: each packet
// waits exactly the 5 ms target and leaves one packet behind, so only the
// bytes counted after the pop keep CoDel from dropping there.
TEST(FqCoDelTest, OneFlowMatchesCoDel) {
  constexpr size_t kRoomy = 100000;
  for (bool ecn : {false, true}) {
    SCOPED_TRACE(ecn ? "ecn on" : "ecn off");
    CoDel codel(kRoomy);
    FqCoDel fq(kRoomy);
    telemetry::TelemetrySpine codel_spine;
    telemetry::TelemetrySpine fq_spine;
    RecordLog codel_log;
    RecordLog fq_log;
    codel_spine.AttachSink(&codel_log);
    fq_spine.AttachSink(&fq_log);
    codel.BindTelemetry(&codel_spine, 0);
    fq.BindTelemetry(&fq_spine, 0);
    codel.set_ecn_enabled(ecn);
    fq.set_ecn_enabled(ecn);

    uint64_t seq = 0;
    size_t dequeued = 0;
    struct Phase {
      int64_t end_us;
      int64_t arrival_gap_us;  // 0 = no arrivals
      int64_t service_gap_us;  // 0 = no service
    };
    const Phase phases[] = {{600'000, 500, 1000},   {1'500'000, 4000, 1000},
                            {2'000'000, 400, 1000},  {3'000'000, 0, 1000},
                            {3'005'000, 5000, 0},    {4'000'000, 5000, 5000}};
    const Phase* phase = phases;
    for (int64_t us = 0; us < 4'000'000; us += 100) {
      SimTime now = SimTime::FromNanos(us * 1000);
      if (us >= phase->end_us) {
        ++phase;
      }
      if (phase->arrival_gap_us != 0 && us % phase->arrival_gap_us == 0) {
        Packet p = MakePacket(7, seq % 5 == 4 ? 64 : 1500);
        p.created = SimTime::FromNanos(static_cast<int64_t>(seq));
        p.ecn_capable = seq % 4 != 3;
        ++seq;
        ASSERT_TRUE(codel.Enqueue(p, now));
        ASSERT_TRUE(fq.Enqueue(p, now));
      }
      if (phase->service_gap_us != 0 && us % phase->service_gap_us == 0) {
        std::optional<Packet> a = codel.Dequeue(now);
        std::optional<Packet> b = fq.Dequeue(now);
        ASSERT_EQ(a.has_value(), b.has_value()) << "at " << us << " us";
        if (a.has_value()) {
          ++dequeued;
          EXPECT_EQ(a->created, b->created);
          EXPECT_EQ(a->size_bytes, b->size_bytes);
          EXPECT_EQ(a->ecn_marked, b->ecn_marked);
        }
      }
    }

    const QdiscStats& cs = codel.stats();
    const QdiscStats& fs = fq.stats();
    EXPECT_GT(dequeued, 2000u);
    EXPECT_GT(cs.dropped_from_queue_packets, 10u);
    EXPECT_EQ(cs.ecn_marked_packets > 10, ecn);
    EXPECT_EQ(cs.enqueued_packets, fs.enqueued_packets);
    EXPECT_EQ(cs.dequeued_packets, fs.dequeued_packets);
    EXPECT_EQ(cs.dropped_packets, fs.dropped_packets);
    EXPECT_EQ(cs.ecn_marked_packets, fs.ecn_marked_packets);
    EXPECT_EQ(cs.enqueued_bytes, fs.enqueued_bytes);
    EXPECT_EQ(cs.dequeued_bytes, fs.dequeued_bytes);
    EXPECT_EQ(cs.dropped_pre_queue_packets, fs.dropped_pre_queue_packets);
    EXPECT_EQ(cs.dropped_from_queue_packets, fs.dropped_from_queue_packets);
    EXPECT_EQ(cs.dropped_from_queue_bytes, fs.dropped_from_queue_bytes);
    EXPECT_EQ(codel.packet_count(), fq.packet_count());
    EXPECT_EQ(codel.byte_count(), fq.byte_count());

    // Enqueues, dequeues with their sojourns, drops and marks, in order.
    ASSERT_EQ(codel_log.records.size(), fq_log.records.size());
    for (size_t i = 0; i < codel_log.records.size(); ++i) {
      const telemetry::TraceRecord& x = codel_log.records[i];
      const telemetry::TraceRecord& y = fq_log.records[i];
      ASSERT_EQ(x.t, y.t) << "record " << i;
      ASSERT_EQ(x.kind, y.kind) << "record " << i;
      ASSERT_EQ(x.flags, y.flags) << "record " << i;
      ASSERT_EQ(x.size, y.size) << "record " << i;
      ASSERT_EQ(x.u.range.aux, y.u.range.aux) << "record " << i;
    }
  }
}

TEST(PieTest, NoDropsOnLightLoad) {
  Pie q(Rng(1));
  int64_t t = 0;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(q.Enqueue(MakePacket(1), At(t)));
    q.Dequeue(At(t + 1));  // 1 ms sojourn << 15 ms target
    t += 2;
  }
  EXPECT_EQ(q.stats().dropped_packets, 0u);
  EXPECT_LT(q.drop_probability(), 0.01);
}

TEST(PieTest, DropProbabilityRisesUnderStandingQueue) {
  Pie q(Rng(2), /*limit_packets=*/100000);
  // Arrivals at 2x the departure rate build a standing queue.
  int64_t t_us = 0;
  int64_t next_deq_us = 0;
  for (int i = 0; i < 20000; ++i) {
    q.Enqueue(MakePacket(1), SimTime::FromNanos(t_us * 1000));
    t_us += 500;  // 2000 pkt/s arrivals
    while (next_deq_us < t_us) {
      q.Dequeue(SimTime::FromNanos(next_deq_us * 1000));  // 1000 pkt/s service
      next_deq_us += 1000;
    }
  }
  EXPECT_GT(q.drop_probability(), 0.01);
  EXPECT_GT(q.stats().dropped_packets, 50u);
}

TEST(PieTest, BurstAllowancePermitsInitialBurst) {
  Pie q(Rng(3));
  // A short burst right at start must pass untouched (150 ms allowance).
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(q.Enqueue(MakePacket(1), At(i / 10)));
  }
  EXPECT_EQ(q.stats().dropped_packets, 0u);
}

TEST(RedTest, NoEarlyDropsBelowMinThreshold) {
  Red q(50, Rng(5));  // min_th 10
  // Keep the standing queue at ~5 packets: below min_th, never drops.
  int64_t t = 0;
  for (int i = 0; i < 2000; ++i) {
    for (int k = 0; k < 5; ++k) {
      ASSERT_TRUE(q.Enqueue(MakePacket(1), At(t)));
    }
    for (int k = 0; k < 5; ++k) {
      q.Dequeue(At(t + 1));
    }
    t += 2;
  }
  EXPECT_EQ(q.stats().dropped_packets, 0u);
}

TEST(RedTest, EarlyDropProbabilityGrowsWithAverageQueue) {
  Red q(75, Rng(6));  // min_th 15, max_th 45
  // Hold a standing queue of ~30 packets (between min and max thresholds):
  // top the queue back up every iteration so early drops do not drain it.
  int64_t t = 0;
  uint64_t offered = 0;
  for (int i = 0; i < 20000; ++i) {
    while (q.packet_count() < 30) {
      q.Enqueue(MakePacket(1), At(t));
      ++offered;
    }
    q.Dequeue(At(t + 1));
    t += 2;
  }
  // Early drops happened, at a moderate rate (max_p 0.1 ballpark).
  double drop_rate = static_cast<double>(q.stats().dropped_packets) / offered;
  EXPECT_GT(drop_rate, 0.01);
  EXPECT_LT(drop_rate, 0.35);
  EXPECT_GT(q.average_queue(), 15.0);
}

TEST(RedTest, IdleDecayShrinksAverage) {
  Red q(1000, Rng(7));
  int64_t t = 0;
  for (int i = 0; i < 50; ++i) {
    q.Enqueue(MakePacket(1), At(t));
  }
  while (q.Dequeue(At(t)).has_value()) {
  }
  double avg_before = q.average_queue();
  // A long idle period must decay the average toward zero.
  q.Enqueue(MakePacket(1), At(t + 10000));
  EXPECT_LT(q.average_queue(), avg_before * 0.5);
}

TEST(RedTest, EcnMarksInsteadOfDrops) {
  Red q(50, Rng(8));  // min_th 10, max_th 30
  q.set_ecn_enabled(true);
  int64_t t = 0;
  for (int i = 0; i < 15; ++i) {
    Packet p = MakePacket(1);
    p.ecn_capable = true;
    q.Enqueue(std::move(p), At(t));
  }
  for (int i = 0; i < 20000; ++i) {
    Packet p = MakePacket(1);
    p.ecn_capable = true;
    q.Enqueue(std::move(p), At(t));
    q.Dequeue(At(t + 1));
    t += 2;
  }
  EXPECT_GT(q.stats().ecn_marked_packets, 10u);
  EXPECT_EQ(q.stats().dropped_packets, 0u);
}

// RED's thresholds are 0.2x and 0.6x its limit: a standing queue just under
// the first never sees an early drop, and once the average reaches the second
// every arrival is dropped, though the queue is below the limit.
TEST(RedTest, ThresholdsFollowLimit) {
  for (size_t limit : {100, 250}) {
    SCOPED_TRACE(limit);
    const double min_th = 0.2 * static_cast<double>(limit);
    const double max_th = 0.6 * static_cast<double>(limit);
    Red q(limit, Rng(9));
    // Hold the queue one packet under min_th: the average stays below it.
    const size_t under_min = static_cast<size_t>(min_th) - 1;
    for (int i = 0; i < 20000; ++i) {
      while (q.packet_count() < under_min) {
        ASSERT_TRUE(q.Enqueue(MakePacket(1), At(0)));
      }
      ASSERT_TRUE(q.Enqueue(MakePacket(1), At(0)));
      q.Dequeue(At(0));
    }
    EXPECT_EQ(q.stats().dropped_packets, 0u);
    EXPECT_GT(q.average_queue(), min_th - 1.5);
    EXPECT_LT(q.average_queue(), min_th);

    // Hold it between max_th and the limit until the average passes max_th.
    const size_t above_max = (static_cast<size_t>(max_th) + limit) / 2;
    while (q.packet_count() < above_max) {
      q.Enqueue(MakePacket(1), At(0));
    }
    int arrivals_above_max = 0;
    for (int i = 0; i < 5000; ++i) {
      bool accepted = q.Enqueue(MakePacket(1), At(0));
      if (q.average_queue() >= max_th) {
        ++arrivals_above_max;
        EXPECT_FALSE(accepted);
      }
      if (accepted) {
        q.Dequeue(At(0));
      }
      ASSERT_EQ(q.packet_count(), above_max);
    }
    EXPECT_GT(arrivals_above_max, 1000);
  }
}

TEST(RedDeathTest, ZeroLimitAborts) {
  EXPECT_DEATH(Red(0, Rng(1)), "RED needs a queue limit above 0");
}

// ---------------------------------------------------------------------------
// Conservation property across all disciplines
// ---------------------------------------------------------------------------

class QdiscConservationTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<Qdisc> Make() {
    std::string name = GetParam();
    if (name == "pfifo_fast") {
      return std::make_unique<PfifoFast>(50);
    }
    if (name == "codel") {
      return std::make_unique<CoDel>(50);
    }
    if (name == "fq_codel") {
      return std::make_unique<FqCoDel>(50);
    }
    if (name == "pie") {
      return std::make_unique<Pie>(Rng(77), 50);
    }
    return std::make_unique<Red>(50, Rng(78));
  }
};

TEST_P(QdiscConservationTest, EnqueuedEqualsDequeuedPlusDroppedPlusQueued) {
  auto q = Make();
  Rng rng(99);
  uint64_t offered = 0;
  uint64_t accepted = 0;
  uint64_t dequeued = 0;
  int64_t t = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.Bernoulli(0.6)) {
      ++offered;
      if (q->Enqueue(MakePacket(rng.UniformInt(1, 5), 1500), At(t))) {
        ++accepted;
      }
    }
    if (rng.Bernoulli(0.5)) {
      if (q->Dequeue(At(t + 1)).has_value()) {
        ++dequeued;
      }
    }
    t += 3;
  }
  const QdiscStats& s = q->stats();
  // Every offered packet was either counted as enqueued or dropped.
  EXPECT_EQ(s.enqueued_packets + (offered - accepted), offered);
  // AQMs may drop after enqueue, so: enqueued = dequeued + internal drops + queued.
  uint64_t internal_drops = s.dropped_packets - (offered - accepted);
  EXPECT_EQ(s.enqueued_packets, s.dequeued_packets + internal_drops + q->packet_count());
  EXPECT_EQ(s.dequeued_packets, dequeued);
}

INSTANTIATE_TEST_SUITE_P(AllQdiscs, QdiscConservationTest,
                         ::testing::Values("pfifo_fast", "codel", "fq_codel", "pie", "red"));

}  // namespace
}  // namespace element
