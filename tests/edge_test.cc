// Focused edge-case tests across modules: RTO backoff, auto-tune caps,
// estimator corner cases, retry-ladder interplay, and receiver-side oddities.

#include <gtest/gtest.h>

#include <memory>

#include "src/apps/iperf_app.h"
#include "src/element/byte_sink.h"
#include "src/element/delay_estimator.h"
#include "src/element/element_socket.h"
#include "src/netsim/pipe.h"
#include "src/tcpsim/tcp_segment.h"
#include "src/tcpsim/testbed.h"

namespace element {
namespace {

SimTime Ms(int64_t ms) { return SimTime::FromNanos(ms * 1'000'000); }
SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

// ---- RTO / sender edge cases (scripted peer) ----

class ScriptedPeerTest : public ::testing::Test {
 protected:
  struct Capture : PacketSink {
    void Deliver(Packet pkt) override { sent.push_back(std::move(pkt)); }
    std::vector<Packet> sent;
  };
  static const TcpSegmentPayload& Tcp(const Packet& p) {
    return *static_cast<const TcpSegmentPayload*>(p.payload.get());
  }

  ScriptedPeerTest() {
    socket_ = std::make_unique<TcpSocket>(&loop_, Rng(1), TcpSocket::Config{}, 1, &capture_,
                                          &demux_);
    socket_->SetSndBuf(1 << 20);
    socket_->Connect();
    TcpSegmentPayload synack;
    synack.syn = true;
    synack.ack = true;
    synack.receive_window = 1 << 24;
    Packet pkt;
    pkt.flow_id = 1;
    pkt.size_bytes = 60;
    pkt.payload = std::make_shared<TcpSegmentPayload>(synack);
    socket_->Deliver(std::move(pkt));
    capture_.sent.clear();
  }

  size_t CountRetransmits() const {
    size_t n = 0;
    for (const Packet& p : capture_.sent) {
      n += Tcp(p).retransmit;
    }
    return n;
  }

  EventLoop loop_;
  Capture capture_;
  Demux demux_;
  std::unique_ptr<TcpSocket> socket_;
};

TEST_F(ScriptedPeerTest, RtoBackoffSpacingDoubles) {
  socket_->Write(kDefaultMss);
  std::vector<double> retx_times;
  SimTime start = loop_.now();
  loop_.RunUntil(start + TimeDelta::FromSecondsInt(16));
  for (const Packet& p : capture_.sent) {
    if (Tcp(p).retransmit) {
      retx_times.push_back((p.created - start).ToSeconds());
    }
  }
  // Initial RTO ~1 s (handshake RTT ~0 -> floor applies); spacing must grow
  // roughly exponentially: each gap at least 1.5x the previous.
  ASSERT_GE(retx_times.size(), 3u);
  for (size_t i = 2; i < retx_times.size(); ++i) {
    double gap_prev = retx_times[i - 1] - retx_times[i - 2];
    double gap_cur = retx_times[i] - retx_times[i - 1];
    EXPECT_GT(gap_cur, gap_prev * 1.5);
  }
}

TEST_F(ScriptedPeerTest, NoRtoAfterEverythingAcked) {
  socket_->Write(kDefaultMss);
  TcpSegmentPayload ack;
  ack.ack = true;
  ack.ack_seq = kDefaultMss;
  ack.receive_window = 1 << 24;
  Packet pkt;
  pkt.flow_id = 1;
  pkt.size_bytes = kIpTcpHeaderBytes;
  pkt.payload = std::make_shared<TcpSegmentPayload>(ack);
  socket_->Deliver(std::move(pkt));
  capture_.sent.clear();
  loop_.RunUntil(loop_.now() + TimeDelta::FromSecondsInt(10));
  EXPECT_EQ(CountRetransmits(), 0u);
}

// ---- Auto-tuning cap ----

TEST(AutotuneCapTest, SndbufNeverExceedsConfiguredMax) {
  PathConfig path;
  path.rate = DataRate::Mbps(500);
  path.one_way_delay = TimeDelta::FromMillis(40);
  path.queue_limit_packets = 4000;
  Testbed bed(5, path);
  TcpSocket::Config cfg;
  cfg.sndbuf_max_bytes = 1 << 20;  // 1 MB cap on a ~5 MB BDP path
  Testbed::Flow flow = bed.CreateFlow(cfg);
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(20.0));
  EXPECT_LE(flow.sender->sndbuf(), 1u << 20);
  // And the cap actually bound (we hit it).
  EXPECT_EQ(flow.sender->sndbuf(), 1u << 20);
}

// ---- Estimator corner cases ----

TEST(EstimatorEdgeTest, SampleWithNoRecordsIsSafe) {
  SenderDelayEstimator est;
  TcpInfoData info;
  info.tcpi_bytes_acked = 123456;
  info.tcpi_snd_mss = 1448;
  est.OnTcpInfoSample(info, Ms(10));  // no OnAppSend ever happened
  EXPECT_TRUE(est.delay_series().empty());
  EXPECT_EQ(est.pending_records(), 0u);
}

TEST(EstimatorEdgeTest, RepeatedIdenticalSamplesMatchOnce) {
  SenderDelayEstimator est;
  est.OnAppSend(1000, Ms(0));
  TcpInfoData info;
  info.tcpi_bytes_acked = 1000;
  info.tcpi_snd_mss = 1448;
  est.OnTcpInfoSample(info, Ms(10));
  est.OnTcpInfoSample(info, Ms(20));
  est.OnTcpInfoSample(info, Ms(30));
  EXPECT_EQ(est.delay_series().count(), 1u);  // record consumed exactly once
}

TEST(EstimatorEdgeTest, ReceiverIgnoresNonMonotoneEstimates) {
  ReceiverDelayEstimator est;
  TcpInfoData info;
  info.tcpi_rcv_mss = 1000;
  info.tcpi_segs_in = 5;
  est.OnTcpInfoSample(info, Ms(0));
  info.tcpi_segs_in = 5;  // no progress
  est.OnTcpInfoSample(info, Ms(10));
  EXPECT_EQ(est.pending_records(), 1u);
}

// ---- ElementSocket corner cases ----

TEST(ElementSocketEdgeTest, DestructionDetachesCleanly) {
  PathConfig path;
  Testbed bed(7, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  {
    ElementSocket em(&bed.loop(), flow.sender, ElementSocket::Options{});
    em.Send(10000);
  }  // em destroyed while its retry/tracker events may be pending
  // The socket keeps working raw afterwards.
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(10.0));
  EXPECT_GT(flow.receiver->app_bytes_read(), 1'000'000u);
}

TEST(ElementSocketEdgeTest, MeasurementOnlyModeNeverGates) {
  PathConfig path;
  Testbed bed(8, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  ElementSocket::Options opt;
  opt.enable_latency_minimization = false;
  ElementSocket em(&bed.loop(), flow.sender, opt);
  bed.loop().RunUntil(Sec(1.0));
  // Without the controller, em_send is an un-quantized write.
  RetInfo r = em.Send(50000);
  EXPECT_EQ(r.size, 50000);
  EXPECT_EQ(em.minimizer(), nullptr);
}

TEST(ElementSocketEdgeTest, ReadOnEmptyBufferReturnsZero) {
  PathConfig path;
  Testbed bed(9, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  ElementSocket em(&bed.loop(), flow.receiver, ElementSocket::Options{});
  bed.loop().RunUntil(Sec(1.0));
  RetInfo r = em.Read(1000);
  EXPECT_EQ(r.size, 0);
}

// ---- FlowMeter / tracker timing edge ----

TEST(TrackerEdgeTest, ZeroTrafficThroughputIsZero) {
  PathConfig path;
  Testbed bed(10, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  TcpInfoTracker tracker(&bed.loop(), flow.sender);
  tracker.Start();
  bed.loop().RunUntil(Sec(3.0));
  EXPECT_DOUBLE_EQ(tracker.throughput().ToMbps(), 0.0);
}

}  // namespace
}  // namespace element
