// Unit tests for the common substrate: time types, data rates, RNG, the
// statistics containers every experiment relies on, and the ring FIFO under
// the per-packet queues.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "src/common/data_rate.h"
#include "src/common/flags.h"
#include "src/common/ring_fifo.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/time.h"
#include "src/netsim/packet.h"

namespace element {
namespace {

TEST(TimeDeltaTest, ConstructionAndConversion) {
  EXPECT_EQ(TimeDelta::FromMillis(5).nanos(), 5'000'000);
  EXPECT_EQ(TimeDelta::FromMicros(5).nanos(), 5'000);
  EXPECT_EQ(TimeDelta::FromSecondsInt(2), TimeDelta::FromMillis(2000));
  EXPECT_DOUBLE_EQ(TimeDelta::FromMillis(1500).ToSeconds(), 1.5);
  EXPECT_EQ(TimeDelta::FromMicros(2500).ToMicros(), 2500);
}

TEST(TimeDeltaTest, Arithmetic) {
  TimeDelta a = TimeDelta::FromMillis(10);
  TimeDelta b = TimeDelta::FromMillis(4);
  EXPECT_EQ(a + b, TimeDelta::FromMillis(14));
  EXPECT_EQ(a - b, TimeDelta::FromMillis(6));
  EXPECT_EQ(a * 2.5, TimeDelta::FromMillis(25));
  EXPECT_EQ(a / 2, TimeDelta::FromMillis(5));
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_EQ((-b).nanos(), -4'000'000);
}

TEST(TimeDeltaTest, ComparisonAndSpecials) {
  EXPECT_LT(TimeDelta::FromMillis(1), TimeDelta::FromMillis(2));
  EXPECT_TRUE(TimeDelta::Zero().IsZero());
  EXPECT_TRUE(TimeDelta::Infinite().IsInfinite());
  EXPECT_GT(TimeDelta::Infinite(), TimeDelta::FromSecondsInt(1000000));
}

TEST(SimTimeTest, PointArithmetic) {
  SimTime t0 = SimTime::Zero();
  SimTime t1 = t0 + TimeDelta::FromMillis(150);
  EXPECT_EQ(t1 - t0, TimeDelta::FromMillis(150));
  EXPECT_EQ((t1 - TimeDelta::FromMillis(50)).nanos(), 100'000'000);
  EXPECT_LT(t0, t1);
  t0 += TimeDelta::FromMillis(200);
  EXPECT_GT(t0, t1);
}

TEST(DataRateTest, ConversionsAndTransmitTime) {
  DataRate r = DataRate::Mbps(10);
  EXPECT_DOUBLE_EQ(r.bps(), 10e6);
  EXPECT_DOUBLE_EQ(r.ToMbps(), 10.0);
  EXPECT_DOUBLE_EQ(r.BytesPerSec(), 1.25e6);
  // 1250 bytes at 10 Mbps = 1 ms.
  EXPECT_EQ(r.TransmitTime(1250).ToMicros(), 1000);
  EXPECT_TRUE(DataRate::Zero().TransmitTime(100).IsInfinite());
}

TEST(DataRateTest, RateOver) {
  EXPECT_DOUBLE_EQ(RateOver(1'250'000, TimeDelta::FromSecondsInt(1)).ToMbps(), 10.0);
  EXPECT_TRUE(RateOver(1000, TimeDelta::Zero()).IsZero());
}

TEST(RngTest, Determinism) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, ForkIndependence) {
  Rng parent(99);
  Rng child1 = parent.Fork();
  Rng child2 = parent.Fork();
  // Children seeded differently.
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (child1.Uniform() != child2.Uniform()) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, DistributionsInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
    int64_t n = rng.UniformInt(-2, 2);
    EXPECT_GE(n, -2);
    EXPECT_LE(n, 2);
    EXPECT_GE(rng.Exponential(0.5), 0.0);
    EXPECT_GE(rng.Pareto(1.0, 2.0), 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

// The reference every stream must match: an engine seeded eagerly with the
// stream's seed, drawn through the same std distributions.
using Engine = std::mt19937_64;  // lint_sim: allow(rng-engine)

double ReferenceUniform(Engine& e) { return std::uniform_real_distribution<double>(0.0, 1.0)(e); }

TEST(RngTest, LazyStreamMatchesEagerlySeededEngine) {
  constexpr int kDraws = 10'000;
  constexpr uint64_t kSeed = 424242;
  auto check = [](const char* what, auto draw, auto reference) {
    Rng rng(kSeed);
    Engine engine(kSeed);
    for (int i = 0; i < kDraws; ++i) {
      ASSERT_EQ(draw(rng), reference(engine)) << what << " draw " << i;
    }
  };
  check("Uniform", [](Rng& r) { return r.Uniform(); }, ReferenceUniform);
  check("Uniform(lo, hi)", [](Rng& r) { return r.Uniform(-3.0, 5.0); },
        [](Engine& e) { return -3.0 + 8.0 * ReferenceUniform(e); });
  check("UniformInt", [](Rng& r) { return r.UniformInt(-7, 1000); },
        [](Engine& e) { return std::uniform_int_distribution<int64_t>(-7, 1000)(e); });
  check("Bernoulli", [](Rng& r) { return r.Bernoulli(0.3); },
        [](Engine& e) { return ReferenceUniform(e) < 0.3; });
  check("Exponential", [](Rng& r) { return r.Exponential(0.02); },
        [](Engine& e) { return std::exponential_distribution<double>(50.0)(e); });
  check("Normal", [](Rng& r) { return r.Normal(1.0, 2.0); },
        [](Engine& e) { return std::normal_distribution<double>(1.0, 2.0)(e); });
  check("Pareto", [](Rng& r) { return r.Pareto(2.0, 1.5); },
        [](Engine& e) {
          return 2.0 / std::pow(std::max(1.0 - ReferenceUniform(e), 1e-12), 1.0 / 1.5);
        });
  check("Fork", [](Rng& r) { return r.Fork().Uniform(); },
        [](Engine& e) {
          Engine child(e());
          return ReferenceUniform(child);
        });
}

// A child's seed is the parent's next draw, whether or not the parent (or
// the child, for a grandchild) has drawn before.
TEST(RngTest, ForksMatchEagerParentDrawnOrNot) {
  Rng parent(99);
  Engine parent_ref(99);
  for (int draws_before = 0; draws_before < 3; ++draws_before) {
    for (int i = 0; i < draws_before; ++i) {
      ASSERT_EQ(parent.Uniform(), ReferenceUniform(parent_ref));
    }
    Rng child = parent.Fork();
    Engine child_ref(parent_ref());
    Rng grandchild = child.Fork();
    Engine grandchild_ref(child_ref());
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(child.Uniform(), ReferenceUniform(child_ref)) << draws_before;
      ASSERT_EQ(grandchild.Uniform(), ReferenceUniform(grandchild_ref)) << draws_before;
    }
  }
}

TEST(RngTest, MovedStreamContinues) {
  Rng never_drawn(5);
  Rng moved(std::move(never_drawn));
  Engine moved_ref(5);
  EXPECT_EQ(moved.Uniform(), ReferenceUniform(moved_ref));
  Rng assigned(6);
  assigned = std::move(moved);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(assigned.Uniform(), ReferenceUniform(moved_ref));
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(0.02);
  }
  EXPECT_NEAR(sum / n, 0.02, 0.002);
}

TEST(RunningStatsTest, Moments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.Stdev(), std::sqrt(32.0 / 7.0), 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeEqualsCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    double v = rng.Normal(10, 3);
    (i % 2 == 0 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.Variance(), all.Variance(), 1e-6);
}

TEST(RunningStatsTest, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.Stdev(), 0.0);
}

TEST(SampleSetTest, QuantilesExact) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Quantile(0.9), 90.1, 1e-9);
}

TEST(SampleSetTest, AddAfterQuantileResorts) {
  SampleSet s;
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 5.0);
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
}

TEST(SampleSetTest, MeanStdev) {
  SampleSet s;
  s.Add(1.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_NEAR(s.Stdev(), std::sqrt(2.0), 1e-12);
}

TEST(TimeSeriesTest, InterpolationMidpoints) {
  TimeSeries ts;
  ts.Add(SimTime::FromNanos(0), 0.0);
  ts.Add(SimTime::FromNanos(1'000'000'000), 10.0);
  double v = -1;
  ASSERT_TRUE(ts.InterpolateAt(SimTime::FromNanos(500'000'000), &v));
  EXPECT_DOUBLE_EQ(v, 5.0);
  // Clamping outside range.
  ASSERT_TRUE(ts.InterpolateAt(SimTime::FromNanos(-5), &v));
  EXPECT_DOUBLE_EQ(v, 0.0);
  ASSERT_TRUE(ts.InterpolateAt(SimTime::FromNanos(2'000'000'000), &v));
  EXPECT_DOUBLE_EQ(v, 10.0);
}

TEST(TimeSeriesTest, EmptyReturnsFalse) {
  TimeSeries ts;
  double v;
  EXPECT_FALSE(ts.InterpolateAt(SimTime::Zero(), &v));
}

TEST(TimeSeriesTest, MeanAfterSkipsPrefix) {
  TimeSeries ts;
  ts.Add(SimTime::FromNanos(0), 100.0);
  ts.Add(SimTime::FromNanos(2'000'000'000), 2.0);
  ts.Add(SimTime::FromNanos(3'000'000'000), 4.0);
  EXPECT_DOUBLE_EQ(ts.MeanAfter(SimTime::FromNanos(1'000'000'000)), 3.0);
}

TEST(TablePrinterTest, RendersAlignedRows) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", TablePrinter::Fmt(1.5, 2)});
  table.AddRow({"b", "x"});
  std::string out = table.Render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(FlagsTest, ParsesBothForms) {
  const char* argv[] = {"prog", "measure", "--rate-mbps", "25", "--qdisc=codel", "--ecn"};
  Flags flags;
  ASSERT_TRUE(flags.Parse(6, argv));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "measure");
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate-mbps", 0), 25.0);
  EXPECT_EQ(flags.GetString("qdisc"), "codel");
  EXPECT_TRUE(flags.GetBool("ecn"));
}

TEST(FlagsTest, DefaultsAndTypes) {
  const char* argv[] = {"prog", "--n", "12", "--bad-num", "xyz"};
  Flags flags;
  flags.Parse(5, argv);
  EXPECT_EQ(flags.GetInt("n", 0), 12);
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_EQ(flags.GetInt("bad-num", 3), 3);  // unparsable -> default
  EXPECT_DOUBLE_EQ(flags.GetDouble("missing", 1.5), 1.5);
  EXPECT_FALSE(flags.GetBool("missing"));
}

TEST(FlagsTest, BareFlagBeforeAnotherFlagIsBoolean) {
  const char* argv[] = {"prog", "--wireless", "--flows", "3"};
  Flags flags;
  flags.Parse(4, argv);
  EXPECT_TRUE(flags.GetBool("wireless"));
  EXPECT_EQ(flags.GetInt("flows", 0), 3);
}

TEST(FlagsTest, UnusedFlagDetection) {
  const char* argv[] = {"prog", "--typo-flag", "1", "--used", "2"};
  Flags flags;
  flags.Parse(5, argv);
  flags.GetInt("used", 0);
  auto unused = flags.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo-flag");
}

// ---------------------------------------------------------------------------
// RingFifo
// ---------------------------------------------------------------------------

std::vector<int> Contents(const RingFifo<int>& r) {
  return std::vector<int>(r.begin(), r.end());
}

TEST(RingFifoTest, EmptyRingHasNoStorage) {
  RingFifo<Packet> r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.begin(), r.end());
  RingFifo<Packet> moved(std::move(r));
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(moved.begin(), moved.end());
}

TEST(RingFifoTest, WrapsAroundWithoutGrowing) {
  RingFifo<int> r;
  int next_in = 0;
  int next_out = 0;
  for (int i = 0; i < 5; ++i) {
    r.push_back(next_in++);
  }
  // The first push allocated kInitialCapacity slots from &r[0] on.
  const int* block = &r[0];
  // Cycle far past the capacity at a steady occupancy: the head wraps many
  // times and every element stays in that block.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(r.front(), next_out++);
    r.pop_front();
    r.push_back(next_in++);
    ASSERT_EQ(r.back(), next_in - 1);
    ASSERT_GE(&r.back(), block);
    ASSERT_LT(&r.back(), block + RingFifo<int>::kInitialCapacity);
  }
  EXPECT_EQ(Contents(r), (std::vector<int>{next_out, next_out + 1, next_out + 2, next_out + 3,
                                           next_out + 4}));
}

TEST(RingFifoTest, GrowthWhileWrappedKeepsOrder) {
  RingFifo<int> r;
  for (int i = 0; i < 8; ++i) {
    r.push_back(i);
  }
  for (int i = 0; i < 5; ++i) {
    r.pop_front();  // head now mid-buffer
  }
  for (int i = 8; i < 13; ++i) {
    r.push_back(i);  // wraps: the buffer is full again
  }
  ASSERT_EQ(r.size(), RingFifo<int>::kInitialCapacity);
  r.push_back(13);  // grows while wrapped
  std::vector<int> want;
  for (int i = 5; i < 14; ++i) {
    want.push_back(i);
  }
  EXPECT_EQ(Contents(r), want);
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(r[i], want[i]);
  }
}

TEST(RingFifoTest, PopFrontReleasesTheElementAtOnce) {
  auto payload = std::make_shared<const Payload>();
  RingFifo<Packet> r;
  Packet p;
  p.payload = payload;
  r.push_back(p);
  r.push_back(std::move(p));
  EXPECT_EQ(payload.use_count(), 3);
  r.pop_front();
  EXPECT_EQ(payload.use_count(), 2);
  r.pop_front();
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(RingFifoTest, DestructionAndClearReleaseElements) {
  auto payload = std::make_shared<const Payload>();
  {
    RingFifo<Packet> r;
    for (int i = 0; i < 20; ++i) {
      Packet p;
      p.payload = payload;
      r.push_back(std::move(p));
    }
    EXPECT_EQ(payload.use_count(), 21);
    // 20 pushes grew the block from &r[0] to 32 slots; the head stayed at 0.
    const Packet* block = &r[0];
    r.clear();
    EXPECT_EQ(payload.use_count(), 1);
    Packet p;
    p.payload = payload;
    r.push_back(std::move(p));
    EXPECT_EQ(&r.front(), block + 20);  // clear keeps the storage
  }
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(RingFifoTest, LowerBoundMatchesDeque) {
  // The same sorted sequence in a wrapped ring and in a std::deque: binary
  // searches over the ring's iterators land on the same positions.
  RingFifo<int> ring;
  std::deque<int> deque;
  Rng rng(5);
  int value = 0;
  for (int round = 0; round < 300; ++round) {
    if (!ring.empty() && rng.Bernoulli(0.45)) {
      ring.pop_front();
      deque.pop_front();
    } else {
      value += static_cast<int>(rng.UniformInt(0, 3));  // repeats included
      ring.push_back(value);
      deque.push_back(value);
    }
    ASSERT_EQ(ring.size(), deque.size());
    for (int probe = value - 40; probe <= value + 1; ++probe) {
      auto r = std::lower_bound(ring.begin(), ring.end(), probe);
      auto d = std::lower_bound(deque.begin(), deque.end(), probe);
      ASSERT_EQ(r - ring.begin(), d - deque.begin()) << "probe " << probe;
      auto ru = std::upper_bound(ring.begin(), ring.end(), probe);
      auto du = std::upper_bound(deque.begin(), deque.end(), probe);
      ASSERT_EQ(ru - ring.begin(), du - deque.begin()) << "probe " << probe;
    }
  }
}

}  // namespace
}  // namespace element
