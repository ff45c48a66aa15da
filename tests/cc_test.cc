// Unit tests for the congestion-control modules, driven by synthetic
// AckSamples (no network involved).

#include <gtest/gtest.h>

#include <memory>
#include <typeinfo>
#include <utility>

#include "src/tcpsim/cc_bbr.h"
#include "src/tcpsim/cc_cubic.h"
#include "src/tcpsim/cc_ledbat.h"
#include "src/tcpsim/cc_reno.h"
#include "src/tcpsim/cc_vegas.h"
#include "src/tcpsim/congestion_control.h"

namespace element {
namespace {

constexpr uint32_t kMss = 1448;

AckSample MakeAck(SimTime now, uint64_t acked_bytes, TimeDelta rtt,
                  uint64_t in_flight = 20 * kMss) {
  AckSample s;
  s.now = now;
  s.acked_bytes = acked_bytes;
  s.bytes_in_flight = in_flight;
  s.rtt = rtt;
  s.srtt = rtt;
  s.min_rtt = rtt;
  s.mss = kMss;
  return s;
}

SimTime At(int64_t ms) { return SimTime::FromNanos(ms * 1'000'000); }

TEST(FactoryTest, CreatesAllAlgorithms) {
  const std::pair<const char*, const std::type_info*> expected[] = {
      {"reno", &typeid(RenoCc)},   {"cubic", &typeid(CubicCc)},
      {"vegas", &typeid(VegasCc)}, {"bbr", &typeid(BbrCc)},
      {"ledbat", &typeid(LedbatCc)}, {"cubic-nohystart", &typeid(CubicCc)},
  };
  for (const auto& [name, type] : expected) {
    auto cc = MakeCongestionControl(name);
    ASSERT_NE(cc, nullptr);
    EXPECT_EQ(typeid(*cc), *type) << name;
  }
  EXPECT_THROW(MakeCongestionControl("nope"), std::invalid_argument);
}

TEST(RenoTest, SlowStartDoublesPerRtt) {
  RenoCc cc;
  cc.OnConnectionStart(At(0), kMss);
  double w0 = cc.CwndSegments();
  // One RTT worth of ACKs: each full window acked adds a full window.
  cc.OnAck(MakeAck(At(10), static_cast<uint64_t>(w0) * kMss, TimeDelta::FromMillis(10)));
  EXPECT_NEAR(cc.CwndSegments(), 2 * w0, 0.01);
}

TEST(RenoTest, CongestionAvoidanceAddsOneSegmentPerRtt) {
  RenoCc cc;
  cc.OnConnectionStart(At(0), kMss);
  cc.OnLoss(At(1), 0, kMss);  // forces ssthresh = cwnd/2, enters CA
  double w = cc.CwndSegments();
  cc.OnAck(MakeAck(At(10), static_cast<uint64_t>(w * kMss), TimeDelta::FromMillis(10)));
  EXPECT_NEAR(cc.CwndSegments(), w + 1.0, 0.05);
}

TEST(RenoTest, LossHalvesWindow) {
  RenoCc cc;
  cc.OnConnectionStart(At(0), kMss);
  cc.OnAck(MakeAck(At(5), 40 * kMss, TimeDelta::FromMillis(10)));
  double before = cc.CwndSegments();
  cc.OnLoss(At(6), 0, kMss);
  EXPECT_NEAR(cc.CwndSegments(), before / 2.0, 1.0);
  EXPECT_EQ(cc.SsthreshSegments(), static_cast<uint32_t>(cc.CwndSegments()));
}

TEST(RenoTest, RtoResetsToOneSegment) {
  RenoCc cc;
  cc.OnConnectionStart(At(0), kMss);
  cc.OnAck(MakeAck(At(5), 40 * kMss, TimeDelta::FromMillis(10)));
  cc.OnRetransmissionTimeout(At(6));
  EXPECT_DOUBLE_EQ(cc.CwndSegments(), 1.0);
}

TEST(RenoTest, NoGrowthDuringRecovery) {
  RenoCc cc;
  cc.OnConnectionStart(At(0), kMss);
  double before = cc.CwndSegments();
  AckSample s = MakeAck(At(5), 10 * kMss, TimeDelta::FromMillis(10));
  s.in_recovery = true;
  cc.OnAck(s);
  EXPECT_DOUBLE_EQ(cc.CwndSegments(), before);
}

TEST(CubicTest, BetaDecreaseOnLoss) {
  CubicCc cc;
  cc.OnConnectionStart(At(0), kMss);
  cc.OnAck(MakeAck(At(5), 90 * kMss, TimeDelta::FromMillis(20)));
  double before = cc.CwndSegments();
  cc.OnLoss(At(6), 0, kMss);
  EXPECT_NEAR(cc.CwndSegments(), before * 0.7, 0.01);
  EXPECT_NEAR(cc.w_max(), before, 0.01);
}

TEST(CubicTest, FastConvergenceLowersWmax) {
  CubicCc cc;
  cc.OnConnectionStart(At(0), kMss);
  cc.OnAck(MakeAck(At(5), 90 * kMss, TimeDelta::FromMillis(20)));
  cc.OnLoss(At(6), 0, kMss);
  double w_after_first = cc.CwndSegments();
  // Second loss below w_max: fast convergence sets w_max below current cwnd.
  cc.OnLoss(At(7), 0, kMss);
  EXPECT_LT(cc.w_max(), w_after_first + 0.01);
  EXPECT_NEAR(cc.w_max(), w_after_first * (2.0 - 0.7) / 2.0, 0.01);
}

TEST(CubicTest, ConcaveGrowthTowardWmax) {
  CubicCc cc;
  cc.OnConnectionStart(At(0), kMss);
  cc.OnAck(MakeAck(At(1), 200 * kMss, TimeDelta::FromMillis(20)));
  cc.OnLoss(At(2), 0, kMss);
  double floor_w = cc.CwndSegments();
  double w_max = cc.w_max();
  // Feed ACK clock for a while: cwnd must recover toward w_max.
  int64_t t = 20;
  for (int i = 0; i < 200; ++i) {
    cc.OnAck(MakeAck(At(t), static_cast<uint64_t>(cc.CwndSegments()) * kMss,
                     TimeDelta::FromMillis(20)));
    t += 20;
  }
  EXPECT_GT(cc.CwndSegments(), floor_w);
  EXPECT_GT(cc.CwndSegments(), w_max * 0.95);
}

TEST(CubicTest, HyStartExitsSlowStartOnDelayRise) {
  CubicCc cc;
  cc.OnConnectionStart(At(0), kMss);
  // Feed rising RTTs over several rounds while still in slow start.
  int64_t t = 0;
  for (int round = 0; round < 12; ++round) {
    TimeDelta rtt = TimeDelta::FromMillis(50 + round * 10);  // +20% per round
    for (int i = 0; i < 5; ++i) {
      cc.OnAck(MakeAck(At(t), 2 * kMss, rtt));
      t += 12;
    }
  }
  // ssthresh must have been pulled down from "infinity".
  EXPECT_LT(cc.SsthreshSegments(), 1000000u);
}

TEST(CubicTest, NoHyStartExitOnFlatRtt) {
  CubicCc cc;
  cc.OnConnectionStart(At(0), kMss);
  int64_t t = 0;
  for (int i = 0; i < 60; ++i) {
    cc.OnAck(MakeAck(At(t), 2 * kMss, TimeDelta::FromMillis(50)));
    t += 10;
  }
  EXPECT_GT(cc.SsthreshSegments(), 1000000u);
}

TEST(VegasTest, StabilizesWithQueueBetweenAlphaAndBeta) {
  VegasCc cc;
  cc.OnConnectionStart(At(0), kMss);
  // base RTT 100 ms. Simulate a path where each queued segment adds 1 ms.
  int64_t t = 0;
  for (int i = 0; i < 600; ++i) {
    double w = cc.CwndSegments();
    double base_ms = 100.0;
    // Assume BDP of 50 segments; excess queues.
    double queued = std::max(0.0, w - 50.0);
    TimeDelta rtt = TimeDelta::FromSeconds((base_ms + queued * 2.0) / 1000.0);
    cc.OnAck(MakeAck(At(t), static_cast<uint64_t>(w) * kMss, rtt));
    t += rtt.ToMicros() / 1000;
  }
  // Vegas should hold cwnd near BDP + alpha..beta queued segments.
  EXPECT_GE(cc.CwndSegments(), 50.0);
  EXPECT_LE(cc.CwndSegments(), 58.0);
}

TEST(VegasTest, LossBacksOffModestly) {
  VegasCc cc;
  cc.OnConnectionStart(At(0), kMss);
  cc.OnAck(MakeAck(At(5), 40 * kMss, TimeDelta::FromMillis(10)));
  double before = cc.CwndSegments();
  cc.OnLoss(At(6), 0, kMss);
  EXPECT_NEAR(cc.CwndSegments(), before * 0.75, 0.6);
}

TEST(LedbatTest, GrowsWhenBelowTargetDelay) {
  LedbatCc cc;
  cc.OnConnectionStart(At(0), kMss);
  double w0 = cc.CwndSegments();
  // Queueing delay ~0 (rtt == base): off-target is +1, window climbs.
  int64_t t = 10;
  for (int i = 0; i < 200; ++i) {
    cc.OnAck(MakeAck(At(t), 10 * kMss, TimeDelta::FromMillis(50)));
    t += 10;
  }
  EXPECT_GT(cc.CwndSegments(), w0 + 5.0);
}

TEST(LedbatTest, ShrinksWhenAboveTargetDelay) {
  LedbatCc cc;
  cc.OnConnectionStart(At(0), kMss);
  // Establish base at 50 ms, grow a bit.
  int64_t t = 10;
  for (int i = 0; i < 100; ++i) {
    cc.OnAck(MakeAck(At(t), 5 * kMss, TimeDelta::FromMillis(50)));
    t += 10;
  }
  double grown = cc.CwndSegments();
  // Now 150 ms of queueing (>> 60 ms target): the controller backs off.
  for (int i = 0; i < 100; ++i) {
    cc.OnAck(MakeAck(At(t), 5 * kMss, TimeDelta::FromMillis(200)));
    t += 10;
  }
  EXPECT_LT(cc.CwndSegments(), grown);
  EXPECT_GE(cc.CwndSegments(), 2.0);
}

TEST(LedbatTest, ConvergesNearTargetQueueing) {
  // Closed loop: rtt = base + cwnd-proportional queueing; LEDBAT should hold
  // the queueing contribution near its 60 ms target.
  LedbatCc cc;
  cc.OnConnectionStart(At(0), kMss);
  int64_t t = 10;
  double base_ms = 40.0;
  for (int i = 0; i < 3000; ++i) {
    double w = cc.CwndSegments();
    double queued_ms = std::max(0.0, (w - 20.0) * 2.0);  // BDP 20 segs, 2 ms/seg
    cc.OnAck(MakeAck(At(t), static_cast<uint64_t>(w) * kMss,
                     TimeDelta::FromSeconds((base_ms + queued_ms) / 1000.0)));
    t += static_cast<int64_t>(base_ms + queued_ms);
  }
  double queued_final = (cc.CwndSegments() - 20.0) * 2.0;
  EXPECT_NEAR(queued_final, 60.0, 20.0);
}

TEST(LedbatTest, LossHalvesWindow) {
  LedbatCc cc;
  cc.OnConnectionStart(At(0), kMss);
  for (int i = 0; i < 100; ++i) {
    cc.OnAck(MakeAck(At(10 + i * 10), 10 * kMss, TimeDelta::FromMillis(50)));
  }
  double before = cc.CwndSegments();
  cc.OnLoss(At(2000), 0, kMss);
  EXPECT_NEAR(cc.CwndSegments(), before / 2.0, 0.01);
}

TEST(WindowedMaxFilterTest, TracksMaxWithinWindow) {
  WindowedMaxFilter filter(3);
  filter.Update(10.0, 1);
  filter.Update(5.0, 2);
  EXPECT_DOUBLE_EQ(filter.GetMax(), 10.0);
  filter.Update(7.0, 3);
  EXPECT_DOUBLE_EQ(filter.GetMax(), 10.0);
  // Round 5: the round-1 sample ages out; max of {5,7} with 7 newer... 5 was
  // superseded; remaining max is 7.
  filter.Update(1.0, 5);
  EXPECT_DOUBLE_EQ(filter.GetMax(), 7.0);
  filter.Update(2.0, 9);
  EXPECT_DOUBLE_EQ(filter.GetMax(), 2.0);
}

TEST(BbrTest, StartupExitsAfterBandwidthPlateau) {
  BbrCc cc;
  cc.OnConnectionStart(At(0), kMss);
  EXPECT_STREQ(cc.mode_name(), "startup");
  int64_t t = 0;
  // Constant delivery rate: growth stalls -> exit startup within ~3 rounds.
  for (int i = 0; i < 60 && std::string(cc.mode_name()) == "startup"; ++i) {
    AckSample s = MakeAck(At(t), 10 * kMss, TimeDelta::FromMillis(40), 100 * kMss);
    s.delivered_bytes = static_cast<uint64_t>(i + 1) * 10 * kMss;
    s.delivery_rate = DataRate::Mbps(10);
    cc.OnAck(s);
    t += 10;
  }
  EXPECT_STRNE(cc.mode_name(), "startup");
}

TEST(BbrTest, ReachesProbeBwAndSetsBdpCwnd) {
  BbrCc cc;
  cc.OnConnectionStart(At(0), kMss);
  int64_t t = 0;
  uint64_t delivered = 0;
  for (int i = 0; i < 400; ++i) {
    delivered += 10 * kMss;
    AckSample s = MakeAck(At(t), 10 * kMss, TimeDelta::FromMillis(40),
                          /*in_flight=*/30 * kMss);
    s.delivered_bytes = delivered;
    s.delivery_rate = DataRate::Mbps(10);
    cc.OnAck(s);
    t += 10;
  }
  EXPECT_STREQ(cc.mode_name(), "probe_bw");
  // BDP = 10 Mbps * 40 ms = 50 KB; cwnd_gain 2 -> ~100 KB ~ 69 segments.
  EXPECT_NEAR(cc.CwndSegments(), 2.0 * 10e6 / 8.0 * 0.040 / kMss, 8.0);
  ASSERT_TRUE(cc.PacingRate().has_value());
  EXPECT_NEAR(cc.PacingRate()->ToMbps(), 10.0, 3.0);
}

TEST(BbrTest, LossDoesNotCollapseWindow) {
  BbrCc cc;
  cc.OnConnectionStart(At(0), kMss);
  AckSample s = MakeAck(At(5), 10 * kMss, TimeDelta::FromMillis(40));
  s.delivery_rate = DataRate::Mbps(10);
  s.delivered_bytes = 10 * kMss;
  cc.OnAck(s);
  double before = cc.CwndSegments();
  cc.OnLoss(At(6), 0, kMss);
  EXPECT_DOUBLE_EQ(cc.CwndSegments(), before);
}

TEST(BbrTest, ProbeRttShrinksWindowTemporarily) {
  BbrCc cc;
  cc.OnConnectionStart(At(0), kMss);
  int64_t t = 0;
  uint64_t delivered = 0;
  // Run past the 10 s min_rtt window without any new minimum.
  bool saw_probe_rtt = false;
  for (int i = 0; i < 1300; ++i) {
    delivered += 10 * kMss;
    AckSample s = MakeAck(At(t), 10 * kMss,
                          TimeDelta::FromMillis(40 + (i > 0 ? 1 : 0)), 30 * kMss);
    s.delivered_bytes = delivered;
    s.delivery_rate = DataRate::Mbps(10);
    cc.OnAck(s);
    if (std::string(cc.mode_name()) == "probe_rtt") {
      saw_probe_rtt = true;
      EXPECT_DOUBLE_EQ(cc.CwndSegments(), 4.0);
    }
    t += 10;
  }
  EXPECT_TRUE(saw_probe_rtt);
}

}  // namespace
}  // namespace element
