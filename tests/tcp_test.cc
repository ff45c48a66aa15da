// Integration tests for the TCP socket over the simulated network: handshake,
// reliable in-order delivery under loss, throughput, auto-tuning, flow
// control, SACK recovery, ECN, and fairness. Parameterized sweeps cover the
// congestion controls and a bandwidth x RTT grid.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "src/apps/iperf_app.h"
#include "src/apps/measured_flow.h"
#include "src/element/byte_sink.h"
#include "src/tcpsim/testbed.h"
#include "src/trace/flow_meter.h"

namespace element {
namespace {

SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

TEST(TcpHandshakeTest, EstablishesBothEnds) {
  PathConfig path;
  Testbed bed(1, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  EXPECT_FALSE(flow.sender->established());
  bed.loop().RunUntil(Sec(1.0));
  EXPECT_TRUE(flow.sender->established());
  EXPECT_TRUE(flow.receiver->established());
  // Client learned an RTT from the handshake (~2 * 25 ms + serialization).
  EXPECT_NEAR(flow.sender->smoothed_rtt().ToSeconds() * 1e3, 50.0, 5.0);
}

TEST(TcpHandshakeTest, SurvivesSynLoss) {
  PathConfig path;
  path.loss_probability = 0.9;  // brutal; SYN retries must eventually win
  Testbed bed(3, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  bed.loop().RunUntil(Sec(60.0));
  EXPECT_TRUE(flow.sender->established());
}

TEST(TcpTransferTest, DeliversExactByteCount) {
  PathConfig path;
  Testbed bed(2, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  // Send exactly 100000 bytes, retrying short writes on writability.
  uint64_t to_write = 100000;
  auto pump = [&] {
    while (to_write > 0) {
      size_t w = flow.sender->Write(to_write);
      if (w == 0) {
        break;
      }
      to_write -= w;
    }
  };
  flow.sender->SetWritableCallback(pump);
  flow.sender->SetEstablishedCallback(pump);
  uint64_t total_read = 0;
  flow.receiver->SetReadableCallback([&] {
    size_t n;
    while ((n = flow.receiver->Read(1 << 20)) > 0) {
      total_read += n;
    }
  });
  bed.loop().RunUntil(Sec(10.0));
  EXPECT_EQ(total_read, 100000u);
  EXPECT_EQ(flow.receiver->app_bytes_read(), 100000u);
}

TEST(TcpTransferTest, WriteBoundedBySendBuffer) {
  PathConfig path;
  Testbed bed(2, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  flow.sender->SetSndBuf(10000);
  bed.loop().RunUntil(Sec(1.0));
  size_t accepted = flow.sender->Write(50000);
  EXPECT_EQ(accepted, 10000u);
  EXPECT_EQ(flow.sender->SndBufFree(), 0u);
}

TEST(TcpTransferTest, WritableCallbackFiresWhenSpaceFrees) {
  PathConfig path;
  Testbed bed(2, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  flow.sender->SetSndBuf(20000);
  SinkApp reader(flow.receiver);
  reader.Start();
  int writable_calls = 0;
  flow.sender->SetWritableCallback([&] { ++writable_calls; });
  flow.sender->SetEstablishedCallback([&] { flow.sender->Write(100000); });
  bed.loop().RunUntil(Sec(5.0));
  EXPECT_GT(writable_calls, 0);
}

class TcpCcThroughputTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TcpCcThroughputTest, SaturatesLink) {
  PathConfig path;
  path.rate = DataRate::Mbps(20);
  path.one_way_delay = TimeDelta::FromMillis(20);
  path.queue_limit_packets = 150;
  Testbed bed(11, path);
  TcpSocket::Config cfg;
  cfg.congestion_control = GetParam();
  Testbed::Flow flow = bed.CreateFlow(cfg);
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(30.0));
  double goodput =
      RateOver(static_cast<int64_t>(flow.receiver->app_bytes_read()), TimeDelta::FromSecondsInt(30))
          .ToMbps();
  EXPECT_GT(goodput, 20.0 * 0.70) << "cc=" << GetParam();
  EXPECT_LT(goodput, 20.0 * 1.01);
}

INSTANTIATE_TEST_SUITE_P(AllCcs, TcpCcThroughputTest,
                         ::testing::Values("reno", "cubic", "vegas", "bbr"));

TEST(TcpLossRecoveryTest, DeliversEverythingUnderRandomLoss) {
  PathConfig path;
  path.rate = DataRate::Mbps(10);
  path.loss_probability = 0.02;
  Testbed bed(13, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(30.0));
  EXPECT_GT(flow.sender->total_retransmits(), 10u);
  // Reliability: all acked bytes were readable in order.
  EXPECT_EQ(flow.receiver->app_bytes_read(), flow.receiver->GetTcpInfo().tcpi_bytes_received);
  EXPECT_GT(flow.receiver->app_bytes_read(), 1'000'000u);
}

TEST(TcpLossRecoveryTest, SackAvoidsRtoOnBurstLoss) {
  // A queue-overflow burst must be repaired by SACK-driven fast recovery
  // (many retransmits but goodput stays high).
  PathConfig path;
  path.rate = DataRate::Mbps(10);
  path.queue_limit_packets = 40;  // tight: frequent overflow bursts
  Testbed bed(17, path);
  TcpSocket::Config cfg;
  cfg.congestion_control = "reno";  // no HyStart: guarantees an overshoot burst
  Testbed::Flow flow = bed.CreateFlow(cfg);
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(20.0));
  double goodput =
      RateOver(static_cast<int64_t>(flow.receiver->app_bytes_read()), TimeDelta::FromSecondsInt(20))
          .ToMbps();
  EXPECT_GT(flow.sender->total_retransmits(), 0u);
  EXPECT_GT(goodput, 7.0);
}

TEST(TcpAutotuneTest, SndbufRatchetsUpAndNeverShrinks) {
  PathConfig path;
  Testbed bed(5, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  size_t prev = flow.sender->sndbuf();
  size_t initial = prev;
  for (int i = 1; i <= 60; ++i) {
    bed.loop().RunUntil(Sec(i * 0.5));
    size_t now = flow.sender->sndbuf();
    EXPECT_GE(now, prev);  // ratchet-only
    prev = now;
  }
  EXPECT_GT(prev, initial);  // it actually grew
  // Tracks ~2x cwnd.
  TcpInfoData info = flow.sender->GetTcpInfo();
  EXPECT_GE(prev, 2ull * info.tcpi_snd_cwnd * info.tcpi_snd_mss * 6 / 10);
}

TEST(TcpAutotuneTest, SetSndBufPinsAndDisablesAutotune) {
  PathConfig path;
  Testbed bed(5, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  flow.sender->SetSndBuf(30000);
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(10.0));
  EXPECT_EQ(flow.sender->sndbuf(), 30000u);
}

TEST(TcpFlowControlTest, TinyReceiveBufferThrottlesSender) {
  PathConfig path;
  path.rate = DataRate::Mbps(100);
  path.one_way_delay = TimeDelta::FromMillis(10);
  Testbed bed(7, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  app.Start();
  // Receiver app never reads: once the 8 MiB receive buffer fills, the
  // advertised window must stop the sender.
  bed.loop().RunUntil(Sec(5.0));
  EXPECT_GT(flow.receiver->ReadableBytes(), TcpSocket::kRcvBufBytes - 25000);
  EXPECT_LE(flow.receiver->ReadableBytes(), TcpSocket::kRcvBufBytes);
  uint64_t stalled_at = flow.sender->GetTcpInfo().tcpi_bytes_acked;
  bed.loop().RunUntil(Sec(10.0));
  EXPECT_LE(flow.sender->GetTcpInfo().tcpi_bytes_acked, stalled_at + 25000);
}

TEST(TcpInfoTest, FieldsAreCoherent) {
  PathConfig path;
  Testbed bed(9, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(10.0));
  TcpInfoData snd = flow.sender->GetTcpInfo();
  TcpInfoData rcv = flow.receiver->GetTcpInfo();
  EXPECT_EQ(snd.tcpi_snd_mss, kDefaultMss);
  EXPECT_GT(snd.tcpi_bytes_acked, 0u);
  EXPECT_GT(snd.tcpi_snd_cwnd, 1u);
  EXPECT_GT(snd.tcpi_rtt_us, 45000u);  // >= base RTT
  EXPECT_GT(snd.tcpi_segs_out, 0u);
  EXPECT_GT(rcv.tcpi_segs_in, 0u);
  EXPECT_EQ(rcv.tcpi_bytes_received, flow.receiver->app_bytes_read());
  // The paper's sender estimate: acked + unacked*mss >= bytes actually sent.
  uint64_t est = snd.tcpi_bytes_acked + uint64_t(snd.tcpi_unacked) * snd.tcpi_snd_mss;
  uint64_t sent = snd.tcpi_bytes_acked + (flow.sender->SndBufUsed() - snd.tcpi_notsent_bytes);
  EXPECT_GE(est + snd.tcpi_snd_mss, sent);
}

TEST(TcpEcnTest, EcnReducesRetransmissions) {
  auto run = [](bool ecn) {
    PathConfig path;
    path.rate = DataRate::Mbps(10);
    path.qdisc = QdiscType::kCoDel;
    path.ecn = ecn;
    Testbed bed(21, path);
    TcpSocket::Config cfg;
    cfg.ecn = ecn;
    Testbed::Flow flow = bed.CreateFlow(cfg);
    auto sink = std::make_unique<RawTcpSink>(flow.sender);
    IperfApp app(&bed.loop(), sink.get());
    SinkApp reader(flow.receiver);
    app.Start();
    reader.Start();
    bed.loop().RunUntil(Sec(20.0));
    return std::pair<uint64_t, uint64_t>(flow.sender->total_retransmits(),
                                         flow.receiver->app_bytes_read());
  };
  auto [retrans_ecn, bytes_ecn] = run(true);
  auto [retrans_plain, bytes_plain] = run(false);
  EXPECT_LT(retrans_ecn, retrans_plain);
  EXPECT_GT(bytes_ecn, bytes_plain / 2);  // throughput in the same league
}

TEST(TcpFairnessTest, ThreeCubicFlowsShareBottleneck) {
  PathConfig path;
  path.rate = DataRate::Mbps(12);
  path.one_way_delay = TimeDelta::FromMillis(25);
  path.queue_limit_packets = 100;
  Testbed bed(23, path);
  std::vector<Testbed::Flow> flows;
  std::vector<std::unique_ptr<RawTcpSink>> sinks;
  std::vector<std::unique_ptr<IperfApp>> apps;
  std::vector<std::unique_ptr<SinkApp>> readers;
  for (int i = 0; i < 3; ++i) {
    flows.push_back(bed.CreateFlow(TcpSocket::Config{}));
    sinks.push_back(std::make_unique<RawTcpSink>(flows.back().sender));
    apps.push_back(std::make_unique<IperfApp>(&bed.loop(), sinks.back().get()));
    readers.push_back(std::make_unique<SinkApp>(flows.back().receiver));
    apps.back()->Start();
    readers.back()->Start();
  }
  bed.loop().RunUntil(Sec(60.0));
  double total = 0;
  double min_share = 1e18;
  double max_share = 0;
  for (auto& f : flows) {
    double mbps = RateOver(static_cast<int64_t>(f.receiver->app_bytes_read()),
                           TimeDelta::FromSecondsInt(60))
                      .ToMbps();
    total += mbps;
    min_share = std::min(min_share, mbps);
    max_share = std::max(max_share, mbps);
  }
  EXPECT_GT(total, 12.0 * 0.8);
  // Jain-ish check: no flow starves or hogs beyond 2.5x.
  EXPECT_LT(max_share / min_share, 2.5);
}

TEST(TcpDirectionTest, UploadUsesReversePathAsBottleneck) {
  PathConfig path;
  path.rate = DataRate::Mbps(100);
  path.reverse_rate = DataRate::Mbps(5);
  Testbed bed(31, path);
  // Data flows server -> client over the reverse pipe (5 Mbps).
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{}, /*sender_at_client=*/false);
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(20.0));
  double goodput = RateOver(static_cast<int64_t>(flow.receiver->app_bytes_read()),
                            TimeDelta::FromSecondsInt(20))
                       .ToMbps();
  EXPECT_GT(goodput, 3.5);
  EXPECT_LT(goodput, 5.05);
}

TEST(DrwaTest, ReceiverWindowModerationBoundsDelay) {
  auto run = [](bool drwa) {
    PathConfig path;
    path.rate = DataRate::Mbps(10);
    path.queue_limit_packets = 400;  // deep buffer: room to bloat
    Testbed bed(41, path);
    TcpSocket::Config cfg;
    cfg.drwa_rcv_window_moderation = drwa;
    Testbed::Flow flow = bed.CreateFlow(cfg);
    MeasuredFlow::Options options;
    options.tracer.record_from = Sec(5.0);
    MeasuredFlow measured(&bed.loop(), flow.sender, flow.receiver, options);
    measured.Start();
    bed.loop().RunUntil(Sec(30.0));
    return std::pair<double, double>(measured.tracer().network_delay().mean(),
                                     measured.GoodputMbps(30.0));
  };
  auto [net_plain, tput_plain] = run(false);
  auto [net_drwa, tput_drwa] = run(true);
  // DRWA bounds the *network* queueing (that is all a receiver can reach —
  // the sender's socket buffer is out of its control, the paper's §6 point).
  EXPECT_LT(net_drwa, net_plain * 0.7);
  EXPECT_GT(tput_drwa, tput_plain * 0.8);
}

TEST(DrwaTest, WindowNeverChokesToZero) {
  PathConfig path;
  Testbed bed(43, path);
  TcpSocket::Config cfg;
  cfg.drwa_rcv_window_moderation = true;
  Testbed::Flow flow = bed.CreateFlow(cfg);
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(20.0));
  // The 4*MSS floor keeps the connection alive and productive.
  EXPECT_GT(flow.receiver->app_bytes_read(), 5'000'000u);
}

class TcpGridTest
    : public ::testing::TestWithParam<std::tuple<int /*mbps*/, int /*owd_ms*/>> {};

TEST_P(TcpGridTest, GoodputAndConservation) {
  auto [mbps, owd] = GetParam();
  PathConfig path;
  path.rate = DataRate::Mbps(mbps);
  path.one_way_delay = TimeDelta::FromMillis(owd);
  path.queue_limit_packets =
      static_cast<size_t>(std::max(50.0, 2.0 * mbps * 1e6 / 8 * owd * 2e-3 / 1500));
  Testbed bed(1000 + static_cast<uint64_t>(mbps * 100 + owd), path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(30.0));
  double goodput = RateOver(static_cast<int64_t>(flow.receiver->app_bytes_read()),
                            TimeDelta::FromSecondsInt(30))
                       .ToMbps();
  EXPECT_GT(goodput, mbps * 0.65);
  // Conservation: receiver never reads more than the sender wrote, and the
  // stream is contiguous.
  EXPECT_LE(flow.receiver->app_bytes_read(), flow.sender->app_bytes_written());
  EXPECT_EQ(flow.receiver->GetTcpInfo().tcpi_bytes_received,
            flow.receiver->ReadableBytes() + flow.receiver->app_bytes_read());
}

INSTANTIATE_TEST_SUITE_P(BandwidthRttGrid, TcpGridTest,
                         ::testing::Combine(::testing::Values(5, 20, 50),
                                            ::testing::Values(10, 50, 100)));

}  // namespace
}  // namespace element
