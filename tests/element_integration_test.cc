// End-to-end tests of the ELEMENT framework: estimation accuracy against
// ground truth, the em_* socket API, LD_PRELOAD-style interposition, and the
// headline claim — latency minimized while throughput is maintained.

#include <gtest/gtest.h>


#include "src/apps/iperf_app.h"
#include "src/apps/measured_flow.h"
#include "src/element/byte_sink.h"
#include "src/element/element_socket.h"
#include "src/element/interposer.h"
#include "src/tcpsim/testbed.h"

namespace element {
namespace {

SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

struct MeasuredRun {
  double sender_delay_gt = 0.0;
  double sender_accuracy = 0.0;
  double receiver_accuracy = 0.0;
  double goodput_mbps = 0.0;
};

MeasuredRun RunMeasuredFlow(uint64_t seed, const PathConfig& path, double seconds) {
  Testbed bed(seed, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  MeasuredFlow::Options options;
  options.element = MeasuredFlow::Element::kMeasured;
  MeasuredFlow measured(&bed.loop(), flow.sender, flow.receiver, options);
  measured.Start();
  bed.loop().RunUntil(Sec(seconds));

  MeasuredRun out;
  out.sender_delay_gt = measured.tracer().sender_delay().mean();
  out.sender_accuracy = measured.SenderAccuracy().accuracy;
  out.receiver_accuracy = measured.ReceiverAccuracy().accuracy;
  out.goodput_mbps = measured.GoodputMbps(seconds);
  return out;
}

// A measured flow scores while it runs; with the series kept, scoring them
// afterwards must give the same errors, bit for bit.
TEST(ElementAccuracyTest, StreamingScoreMatchesStoredSeries) {
  PathConfig path;
  path.loss_probability = 0.01;  // retransmissions and out-of-order arrivals
  Testbed bed(41, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  MeasuredFlow::Options options;
  options.element = MeasuredFlow::Element::kMeasured;
  options.tracer.record_from = Sec(1.0);
  MeasuredFlow measured(&bed.loop(), flow.sender, flow.receiver, options);
  measured.Start();
  bed.loop().RunUntil(Sec(8.0));

  AccuracyResult sender = measured.SenderAccuracy();
  AccuracyResult receiver = measured.ReceiverAccuracy();
  AccuracyResult sender_stored =
      ScoreEstimates(measured.element_sender().sender_estimator().delay_series(),
                     measured.tracer().sender_delay_series());
  AccuracyResult receiver_stored =
      ScoreEstimates(measured.element_receiver().receiver_estimator().delay_series(),
                     measured.tracer().receiver_delay_series());
  ASSERT_GT(sender.compared_samples, 100u);
  ASSERT_GT(receiver.compared_samples, 100u);
  EXPECT_EQ(sender.errors.samples(), sender_stored.errors.samples());
  EXPECT_EQ(receiver.errors.samples(), receiver_stored.errors.samples());
  EXPECT_EQ(sender.mean_ground_truth_s, sender_stored.mean_ground_truth_s);
  EXPECT_EQ(receiver.mean_ground_truth_s, receiver_stored.mean_ground_truth_s);
}

TEST(ElementAccuracyTest, SenderEstimationAbove90Percent) {
  PathConfig path;  // 10 Mbps / 25 ms, the paper's Low BW profile
  MeasuredRun run = RunMeasuredFlow(101, path, 30.0);
  EXPECT_GT(run.sender_delay_gt, 0.05);  // bufferbloat present
  EXPECT_GT(run.sender_accuracy, 0.90);
}

TEST(ElementAccuracyTest, ReceiverEstimationAbove85Percent) {
  PathConfig path;
  MeasuredRun run = RunMeasuredFlow(103, path, 30.0);
  EXPECT_GT(run.receiver_accuracy, 0.85);
}

// The paper's Figure 7 sweep: accuracy holds across bandwidths and RTTs.
class AccuracySweepTest
    : public ::testing::TestWithParam<std::tuple<int /*mbps*/, int /*rtt_ms*/>> {};

TEST_P(AccuracySweepTest, SenderAccuracyHolds) {
  auto [mbps, rtt] = GetParam();
  PathConfig path;
  path.rate = DataRate::Mbps(mbps);
  path.one_way_delay = TimeDelta::FromMillis(rtt / 2);
  path.queue_limit_packets =
      static_cast<size_t>(std::max(60.0, 2.0 * mbps * 1e6 / 8 * rtt * 1e-3 / 1500));
  MeasuredRun run = RunMeasuredFlow(200 + static_cast<uint64_t>(mbps + rtt), path, 20.0);
  EXPECT_GT(run.sender_accuracy, 0.85) << mbps << " Mbps, " << rtt << " ms";
  // Receiver-side accuracy dips during large out-of-order recovery episodes —
  // Algorithm 2's records run ahead of the readable stream (the same artifact
  // behind the 0-0.25 s error tails in the paper's Figure 7 CDFs) — so the
  // sweep bound is looser than the default-profile bound above.
  EXPECT_GT(run.receiver_accuracy, 0.45) << mbps << " Mbps, " << rtt << " ms";
}

INSTANTIATE_TEST_SUITE_P(BwRtt, AccuracySweepTest,
                         ::testing::Values(std::make_tuple(30, 50), std::make_tuple(100, 50),
                                           std::make_tuple(10, 100), std::make_tuple(10, 200)));

TEST(ElementApiTest, RetInfoFieldsPopulated) {
  PathConfig path;
  Testbed bed(7, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  ElementSocket::Options opt;
  ElementSocket em(&bed.loop(), flow.sender, opt);
  bed.loop().RunUntil(Sec(1.0));
  RetInfo info = em.Send(10000);
  EXPECT_GT(info.size, 0);
  EXPECT_GE(info.cwnd, 2);
  EXPECT_GT(info.rtt_s, 0.0);
  // Throughput is measured over a trailing window; sample it while the bytes
  // from this Send are still inside the window.
  bed.loop().RunUntil(Sec(1.5));
  RetInfo info2 = em.Send(10000);
  EXPECT_GT(info2.throughput_mbps, 0.0);
}

TEST(ElementApiTest, ReadReturnsReceiverDelay) {
  PathConfig path;
  Testbed bed(8, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  ElementSocket::Options opt;
  opt.enable_latency_minimization = false;
  ElementSocket em_rcv(&bed.loop(), flow.receiver, opt);
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  app.Start();
  bool got_read = false;
  em_rcv.SetReadableCallback([&] {
    RetInfo info;
    while ((info = em_rcv.Read(65536)).size > 0) {
      got_read = true;
      EXPECT_GE(info.buf_delay_s, 0.0);
    }
  });
  bed.loop().RunUntil(Sec(5.0));
  EXPECT_TRUE(got_read);
  EXPECT_GT(em_rcv.receiver_estimator().delay_series().count(), 10u);
}

TEST(ElementMinimizationTest, CutsSenderDelayKeepsThroughput) {
  auto run = [](bool with_element) {
    PathConfig path;
    Testbed bed(55, path);
    Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
    MeasuredFlow::Options options;
    options.element =
        with_element ? MeasuredFlow::Element::kInterposed : MeasuredFlow::Element::kOff;
    MeasuredFlow measured(&bed.loop(), flow.sender, flow.receiver, options);
    measured.Start();
    bed.loop().RunUntil(Sec(30.0));
    return std::pair<double, double>(measured.tracer().sender_delay().mean(),
                                     measured.GoodputMbps(30.0));
  };
  auto [delay_plain, goodput_plain] = run(false);
  auto [delay_em, goodput_em] = run(true);
  EXPECT_LT(delay_em, delay_plain * 0.5);        // at least 2x reduction
  EXPECT_GT(goodput_em, goodput_plain * 0.90);   // throughput maintained
}

// Figure 15's generalization: Algorithm 3 works on top of any in-stack
// congestion control, including the latency-oriented ones.
class MinimizationAcrossCcsTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MinimizationAcrossCcsTest, DelayCutThroughputKept) {
  auto run = [&](bool with_element) {
    PathConfig path;
    path.rate = DataRate::Mbps(20);
    path.one_way_delay = TimeDelta::FromMillis(25);
    path.queue_limit_packets = 150;
    Testbed bed(2500, path);
    TcpSocket::Config cfg;
    cfg.congestion_control = GetParam();
    Testbed::Flow flow = bed.CreateFlow(cfg);
    MeasuredFlow::Options options;
    options.element =
        with_element ? MeasuredFlow::Element::kInterposed : MeasuredFlow::Element::kOff;
    options.tracer.record_from = Sec(5.0);
    MeasuredFlow measured(&bed.loop(), flow.sender, flow.receiver, options);
    measured.Start();
    bed.loop().RunUntil(Sec(30.0));
    return std::pair<double, double>(measured.tracer().sender_delay().mean(),
                                     measured.GoodputMbps(30.0));
  };
  auto [delay_plain, tput_plain] = run(false);
  auto [delay_em, tput_em] = run(true);
  EXPECT_LE(delay_em, delay_plain * 1.02) << GetParam();
  EXPECT_GT(tput_em, tput_plain * 0.80) << GetParam();
  // Where the baseline actually bloats (>60 ms), ELEMENT cuts it hard.
  if (delay_plain > 0.06) {
    EXPECT_LT(delay_em, delay_plain * 0.6) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllCcs, MinimizationAcrossCcsTest,
                         ::testing::Values("cubic", "reno", "vegas", "bbr", "ledbat"));

TEST(InterposerTest, LegacyAppRunsUnmodified) {
  // The same IperfApp code must work through either sink — the paper's
  // LD_PRELOAD transparency claim.
  PathConfig path;
  Testbed bed(66, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  InterposedSink sink(&bed.loop(), flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(10.0));
  EXPECT_GT(flow.receiver->app_bytes_read(), 5'000'000u);
  // The interposed ELEMENT instance gathered measurements meanwhile.
  EXPECT_GT(sink.element().sender_estimator().delay_series().count(), 50u);
  EXPECT_GT(sink.element().minimizer()->starget_bytes(), 0u);
}

TEST(ElementMinimizationTest, BuffersStayBoundedNotExhausted) {
  // Figure 10's point: ELEMENT keeps the buffered amount small but non-zero.
  PathConfig path;
  Testbed bed(77, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  InterposedSink sink(&bed.loop(), flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  RunningStats buffered;
  PeriodicTimer sampler(&bed.loop(), TimeDelta::FromMillis(100), [&] {
    if (bed.loop().now() > Sec(5.0)) {
      buffered.Add(static_cast<double>(flow.sender->SndBufUsed()));
    }
  });
  sampler.Start();
  bed.loop().RunUntil(Sec(30.0));
  EXPECT_GT(buffered.mean(), 1000.0);       // never starved
  EXPECT_LT(buffered.mean(), 300'000.0);    // never bloated (cf. ~0.5 MB raw)
}

}  // namespace
}  // namespace element
