// Tests for Algorithm 3 (the latency minimizer): S_target dynamics, the cwnd
// cap, the sleep ladder, and gating behaviour against a live socket.

#include <gtest/gtest.h>

#include <cmath>

#include "src/element/latency_minimizer.h"
#include "src/tcpsim/testbed.h"
#include "src/telemetry/record.h"

namespace element {
namespace {

SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

class MinimizerTest : public ::testing::Test {
 protected:
  MinimizerTest() : bed_(1, PathConfig{}) {
    flow_ = bed_.CreateFlow(TcpSocket::Config{});
    bed_.loop().RunUntil(Sec(0.5));  // establish
  }
  Testbed bed_;
  Testbed::Flow flow_;
};

TEST_F(MinimizerTest, EwmaFollowsPaperWeights) {
  LatencyMinimizer min(&bed_.loop(), flow_.sender, MinimizerParams{}, false);
  min.OnDelayMeasurement(0.080);
  EXPECT_NEAR(min.average_delay().ToSeconds() * 1e3, 80.0, 1e-6);
  min.OnDelayMeasurement(0.0);
  // 7/8 * 80 + 1/8 * 0 = 70.
  EXPECT_NEAR(min.average_delay().ToSeconds() * 1e3, 70.0, 1e-6);
}

TEST_F(MinimizerTest, StargetShrinksWhenDelayAboveThreshold) {
  MinimizerParams params;
  LatencyMinimizer min(&bed_.loop(), flow_.sender, params, false);
  min.Start();
  // Persistently 8x the threshold: ratio = 8^0.25 ~ 1.68 per adjustment.
  for (int i = 0; i < 50; ++i) {
    min.OnDelayMeasurement(0.200);
  }
  bed_.loop().RunUntil(Sec(5.0));
  uint64_t first = min.starget_bytes();
  EXPECT_LT(first, flow_.sender->sndbuf());
  EXPECT_GE(first, flow_.sender->mss());  // floor
}

TEST_F(MinimizerTest, StargetCappedByBetaCwnd) {
  MinimizerParams params;
  LatencyMinimizer min(&bed_.loop(), flow_.sender, params, false);
  min.Start();
  // Delay far below threshold: S_target wants to grow; the cap must bind.
  for (int i = 0; i < 20; ++i) {
    min.OnDelayMeasurement(0.001);
    bed_.loop().RunUntil(Sec(0.5 + 0.25 * i));
  }
  TcpInfoData info = flow_.sender->GetTcpInfo();
  double cap = LatencyMinimizer::kBeta * info.tcpi_snd_cwnd * info.tcpi_snd_mss;
  EXPECT_LE(static_cast<double>(min.starget_bytes()), cap * 1.01);
}

TEST_F(MinimizerTest, SleepLadderFollowsCntPowLambda) {
  MinimizerParams params;
  LatencyMinimizer min(&bed_.loop(), flow_.sender, params, false);
  // cnt^1.5 ms: 1, 2.83, 5.20, 8, ...
  EXPECT_NEAR(min.NextRetryDelay().ToSeconds() * 1e3, 1.0, 1e-6);
  EXPECT_NEAR(min.NextRetryDelay().ToSeconds() * 1e3, std::pow(2.0, 1.5), 1e-6);
  EXPECT_NEAR(min.NextRetryDelay().ToSeconds() * 1e3, std::pow(3.0, 1.5), 1e-6);
  min.OnSendAllowed();
  EXPECT_NEAR(min.NextRetryDelay().ToSeconds() * 1e3, 1.0, 1e-6);
}

TEST_F(MinimizerTest, SleepBudgetExhaustionOpensGate) {
  MinimizerParams params;
  LatencyMinimizer min(&bed_.loop(), flow_.sender, params, false);
  min.Start();
  for (int i = 0; i < 30; ++i) {
    min.OnDelayMeasurement(0.500);
  }
  bed_.loop().RunUntil(Sec(3.0));
  // Fill the pipe so unsent exceeds S_target.
  flow_.sender->Write(4 << 20);
  // After kMaxSleeps retries the gate must open regardless.
  for (int i = 0; i <= LatencyMinimizer::kMaxSleeps; ++i) {
    min.NextRetryDelay();
  }
  EXPECT_TRUE(min.MaySendNow());
}

TEST_F(MinimizerTest, UngatedBeforeInitialization) {
  LatencyMinimizer min(&bed_.loop(), flow_.sender, MinimizerParams{}, false);
  // No delay measurements yet: S_target uninitialized; no gating.
  EXPECT_TRUE(min.MaySendNow());
}

TEST_F(MinimizerTest, WirelessModePinsSndbuf) {
  MinimizerParams params;
  LatencyMinimizer min(&bed_.loop(), flow_.sender, params, /*is_wireless=*/true);
  min.Start();
  for (int i = 0; i < 30; ++i) {
    min.OnDelayMeasurement(0.100);
  }
  bed_.loop().RunUntil(Sec(5.0));
  // SetSndBuf disables auto-tuning and pins near S_target * gamma.
  EXPECT_NEAR(static_cast<double>(flow_.sender->sndbuf()),
              static_cast<double>(min.starget_bytes()) * LatencyMinimizer::kGamma,
              static_cast<double>(min.starget_bytes()) * 0.5);
}

TEST_F(MinimizerTest, EquilibriumNearThresholdOnLiveFlow) {
  // Closed loop: gate the writes with the minimizer and verify the average
  // measured delay settles near D_thr.
  MinimizerParams params;
  LatencyMinimizer min(&bed_.loop(), flow_.sender, params, false);
  min.Start();
  SenderDelayEstimator est;
  struct Feed : telemetry::RecordSink {
    explicit Feed(LatencyMinimizer* m) : min(m) {}
    void OnRecord(const telemetry::TraceRecord& r) override {
      min->OnDelayMeasurement(r.u.delay.sender_s);
    }
    LatencyMinimizer* min;
  } feed(&min);
  est.telemetry().AttachSink(&feed);
  PeriodicTimer tracker(&bed_.loop(), TimeDelta::FromMillis(10), [&] {
    est.OnTcpInfoSample(flow_.sender->GetTcpInfo(), bed_.loop().now());
  });
  tracker.Start();
  // Greedy paced sender.
  PeriodicTimer sender_app(&bed_.loop(), TimeDelta::FromMillis(1), [&] {
    if (flow_.sender->established() && min.MaySendNow()) {
      if (flow_.sender->Write(64 * 1024) > 0) {
        est.OnAppSend(flow_.sender->app_bytes_written(), bed_.loop().now());
        min.OnSendAllowed();
      }
    }
  });
  sender_app.Start();
  flow_.receiver->SetReadableCallback([&] {
    while (flow_.receiver->Read(1 << 20) > 0) {
    }
  });
  bed_.loop().RunUntil(Sec(30.0));
  // Average delay within a few x of the 25 ms threshold (not hundreds of ms).
  EXPECT_LT(min.average_delay().ToSeconds() * 1e3, 100.0);
  EXPECT_GT(est.delay_series().count(), 100u);
}

}  // namespace
}  // namespace element
