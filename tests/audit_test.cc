// Tests for the invariant-audit layer (src/common/check.h and the audit
// hooks): death tests prove the audits actually fire when a conservation law
// is deliberately violated through test-only hooks, and the Release variant
// proves ELEMENT_AUDIT/ELEMENT_DCHECK compile to nothing under NDEBUG.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "src/common/arena.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/element/delay_estimator.h"
#include "src/element/estimation_error.h"
#include "src/netsim/codel.h"
#include "src/netsim/fq_codel.h"
#include "src/netsim/pfifo_fast.h"
#include "src/netsim/pie.h"
#include "src/netsim/pipe.h"
#include "src/netsim/red.h"
#include "src/tcpsim/testbed.h"
#include "src/topo/router.h"

namespace element {
namespace {

SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

Packet MakePacket(uint64_t flow, uint32_t size = 1500) {
  Packet p;
  p.flow_id = flow;
  p.size_bytes = size;
  return p;
}

std::unique_ptr<Qdisc> MakeQdisc(const std::string& name) {
  if (name == "pfifo_fast") {
    return std::make_unique<PfifoFast>(100);
  }
  if (name == "codel") {
    return std::make_unique<CoDel>();
  }
  if (name == "fq_codel") {
    return std::make_unique<FqCoDel>();
  }
  if (name == "pie") {
    return std::make_unique<Pie>(Rng(7));
  }
  return std::make_unique<Red>(1000, Rng(7));
}

// ---------------------------------------------------------------------------
// ELEMENT_CHECK semantics (all build types)
// ---------------------------------------------------------------------------

TEST(CheckTest, PassingChecksAreSilent) {
  ELEMENT_CHECK(1 + 1 == 2) << "not printed";
  ELEMENT_DCHECK(true);
  ELEMENT_AUDIT(true);
}

TEST(CheckTest, StreamedContextNotEvaluatedWhenConditionHolds) {
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return 0;
  };
  ELEMENT_CHECK(true) << expensive();
  EXPECT_EQ(evaluations, 0);
}

TEST(CheckDeathTest, CheckFiresInEveryBuildType) {
  EXPECT_DEATH(ELEMENT_CHECK(1 == 2) << "context " << 42,
               "CHECK failed.*1 == 2.*context 42");
}

// ---------------------------------------------------------------------------
// Delay-decomposition conservation (plain predicate, all build types)
// ---------------------------------------------------------------------------

TEST(DelayDecompositionTest, ConservesWhenComponentsSum) {
  EXPECT_TRUE(DelayDecompositionConserves(0.050, 0.025, 0.010, 0.085));
  // Within 5% relative tolerance.
  EXPECT_TRUE(DelayDecompositionConserves(0.050, 0.025, 0.010, 0.088));
  // Near-zero delays are covered by the absolute slack.
  EXPECT_TRUE(DelayDecompositionConserves(0.0005, 0.0004, 0.0002, 0.0));
}

TEST(DelayDecompositionTest, DetectsAccountingHoles) {
  // A 2x hole between the components and the end-to-end measurement.
  EXPECT_FALSE(DelayDecompositionConserves(0.050, 0.025, 0.010, 0.170));
  EXPECT_FALSE(DelayDecompositionConserves(0.200, 0.025, 0.010, 0.085));
}

// ---------------------------------------------------------------------------
// Latent issues fixed by this layer
// ---------------------------------------------------------------------------

TEST(RngGuardTest, ParetoStaysFinite) {
  Rng rng(123);
  for (int i = 0; i < 200000; ++i) {
    double v = rng.Pareto(1.0, 1.2);
    ASSERT_TRUE(std::isfinite(v));
    ASSERT_GE(v, 1.0);
  }
}

TEST(SndBufTest, OccupancyIsZeroOnceAllDataIsAcked) {
  PathConfig path;
  Testbed bed(5, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  flow.sender->SetEstablishedCallback([&] { flow.sender->Write(20000); });
  bed.loop().RunUntil(Sec(6.0));
  ASSERT_EQ(flow.sender->app_bytes_written(), 20000u);
  EXPECT_EQ(flow.sender->GetTcpInfo().tcpi_bytes_acked, 20000u);
  EXPECT_EQ(flow.sender->SndBufUsed(), 0u);
  EXPECT_EQ(flow.sender->SndBufFree(), flow.sender->sndbuf());
}

#if ELEMENT_AUDITS_ENABLED

// ---------------------------------------------------------------------------
// Audit-violation death tests (Debug / ELEMENT_FORCE_AUDITS builds)
// ---------------------------------------------------------------------------

class QdiscAuditDeathTest : public ::testing::TestWithParam<std::string> {};

TEST_P(QdiscAuditDeathTest, ConservationViolationAborts) {
  auto q = MakeQdisc(GetParam());
  ASSERT_TRUE(q->Enqueue(MakePacket(1), SimTime::Zero()));
  q->TestOnlyCorruptStatsForAudit();
  EXPECT_DEATH(q->Dequeue(SimTime::FromNanos(1000)), "conservation violated");
}

TEST_P(QdiscAuditDeathTest, ConservationViolationAbortsOnEnqueueToo) {
  auto q = MakeQdisc(GetParam());
  q->TestOnlyCorruptStatsForAudit();
  EXPECT_DEATH(q->Enqueue(MakePacket(1), SimTime::Zero()), "conservation violated");
}

INSTANTIATE_TEST_SUITE_P(AllQdiscs, QdiscAuditDeathTest,
                         ::testing::Values("pfifo_fast", "codel", "fq_codel", "pie", "red"));

TEST(TcpAuditDeathTest, SequenceSpaceViolationAborts) {
  PathConfig path;
  Testbed bed(11, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  flow.sender->SetEstablishedCallback([&] { flow.sender->Write(50000); });
  bed.loop().RunUntil(Sec(2.0));
  ASSERT_TRUE(flow.sender->established());
  EXPECT_DEATH(flow.sender->TestOnlyCorruptSequenceStateForAudit(), "snd_una");
}

TEST(TcpAuditDeathTest, CorruptSackedRunAborts) {
  PathConfig path;
  Testbed bed(11, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  flow.sender->SetEstablishedCallback([&] { flow.sender->Write(50000); });
  bed.loop().RunUntil(Sec(2.0));
  ASSERT_TRUE(flow.sender->established());
  EXPECT_DEATH(flow.sender->TestOnlyCorruptSackedRunsForAudit(), "SACKed run");
}

TEST(ArenaAuditDeathTest, DoubleFreeAborts) {
  FreeListArena arena;
  void* block = arena.Allocate(64);
  arena.Free(block, 64);
  EXPECT_DEATH(arena.Free(block, 64), "arena double-free");
}

// A live flow id registered to a second sink would hand the first one's
// packets to it. Demux and Router share the one check.
TEST(FlowIdDeathTest, ReRegisteringALiveIdAborts) {
  Demux demux;
  Demux a;
  Demux b;
  demux.Register(3, &a);
  demux.Register(3, &a);  // the same sink again is a no-op
  EXPECT_DEATH(demux.Register(3, &b), "flow id 3 is still registered");
}

TEST(FlowIdDeathTest, RoutingALiveIdToAnotherPortAborts) {
  Router router("r");
  Demux a;
  Demux b;
  int port_a = router.AddPort(&a);
  int port_b = router.AddPort(&b);
  router.AddRoute(5, port_a);
  router.AddRoute(5, port_a);
  EXPECT_DEATH(router.AddRoute(5, port_b), "flow id 5 is still registered");
}

TEST(DelayDecompositionDeathTest, AuditAbortsOnHole) {
  EXPECT_DEATH(AuditDelayDecomposition(0.200, 0.025, 0.010, 0.085),
               "delay decomposition does not conserve");
}

// InterpolateAt's binary search and the scorer's merge both need time
// order; a point that goes back would be misplaced without a word.
TEST(TimeOrderDeathTest, SeriesPointBackInTimeAborts) {
  TimeSeries series;
  series.Add(Sec(2.0), 1.0);
  EXPECT_DEATH(series.Add(Sec(1.0), 1.0), "time series point at 1000000000ns");
}

TEST(TimeOrderDeathTest, ScorerInputBackInTimeAborts) {
  StreamingScorer truth_then_estimate;
  truth_then_estimate.OnTruth(Sec(2.0), 0.1);
  EXPECT_DEATH(truth_then_estimate.OnEstimate(Sec(1.0), 0.1), "estimate at 1000000000ns");
  StreamingScorer estimate_then_truth;
  estimate_then_truth.OnEstimate(Sec(2.0), 0.1);
  EXPECT_DEATH(estimate_then_truth.OnTruth(Sec(1.0), 0.1), "truth at 1000000000ns");
}

#else  // !ELEMENT_AUDITS_ENABLED

// ---------------------------------------------------------------------------
// Release builds: audits must compile to nothing
// ---------------------------------------------------------------------------

TEST(AuditReleaseTest, ViolationsDoNotAbortWhenAuditsCompiledOut) {
  auto q = MakeQdisc("codel");
  ASSERT_TRUE(q->Enqueue(MakePacket(1), SimTime::Zero()));
  q->TestOnlyCorruptStatsForAudit();
  EXPECT_TRUE(q->Dequeue(SimTime::FromNanos(1000)).has_value());  // no abort

  ELEMENT_DCHECK(false) << "never printed";
  ELEMENT_AUDIT(false) << "never printed";
  AuditDelayDecomposition(0.200, 0.025, 0.010, 0.085);  // no abort
}

TEST(AuditReleaseTest, DisabledChecksDoNotEvaluateOperands) {
  int evaluations = 0;
  auto count = [&evaluations] {
    ++evaluations;
    return false;
  };
  ELEMENT_DCHECK(count()) << count();
  ELEMENT_AUDIT(count()) << count();
  EXPECT_EQ(evaluations, 0);
}

#endif  // ELEMENT_AUDITS_ENABLED

}  // namespace
}  // namespace element
