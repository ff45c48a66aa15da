// Stress, failure-injection, and invariant-checking tests: a record sink
// that validates byte-stream invariants during live runs, link outages, lossy
// radio links, many concurrent flows, and event-loop churn.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "src/apps/iperf_app.h"
#include "src/element/byte_sink.h"
#include "src/element/interposer.h"
#include "src/tcpsim/testbed.h"
#include "src/telemetry/record.h"

namespace element {
namespace {

SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

// Checks the byte-stream invariants the stack must uphold, at every
// stack-boundary record.
class InvariantObserver : public telemetry::RecordSink {
 public:
  void OnRecord(const telemetry::TraceRecord& r) override {
    uint64_t begin = r.u.range.begin;
    uint64_t end = r.u.range.end;
    switch (r.kind) {
      case telemetry::RecordKind::kAppWrite:
        OnAppWrite(begin, end, r.t);
        break;
      case telemetry::RecordKind::kTcpTransmit:
        OnTcpTransmit(begin, end, r.t, (r.flags & telemetry::kFlagRetransmit) != 0);
        break;
      case telemetry::RecordKind::kTcpRxSegment:
        OnTcpRxSegment(begin, end, (r.flags & telemetry::kFlagOutOfOrder) == 0);
        break;
      case telemetry::RecordKind::kAppRead:
        OnAppRead(begin, end);
        break;
      default:
        break;
    }
  }

  uint64_t read_cursor() const { return read_cursor_; }

 private:
  void OnAppWrite(uint64_t begin, uint64_t end, SimTime t) {
    EXPECT_EQ(begin, write_cursor_) << "app writes must be contiguous";
    EXPECT_LT(begin, end);
    EXPECT_GE(t, last_event_);
    write_cursor_ = end;
    last_event_ = t;
  }
  void OnTcpTransmit(uint64_t begin, uint64_t end, SimTime t, bool retransmit) {
    EXPECT_LE(end, write_cursor_) << "cannot transmit bytes the app never wrote";
    EXPECT_LT(begin, end);
    if (!retransmit) {
      // First transmissions never re-cover old bytes.
      EXPECT_GE(begin, first_tx_cursor_);
      first_tx_cursor_ = end;
    }
    EXPECT_GE(t, last_event_);
    last_event_ = t;
  }
  void OnTcpRxSegment(uint64_t begin, uint64_t end, bool in_order) {
    EXPECT_LE(end, first_tx_cursor_) << "cannot receive bytes never transmitted";
    if (in_order) {
      EXPECT_EQ(begin, rcv_cursor_) << "in-order delivery must be contiguous";
      rcv_cursor_ = std::max(rcv_cursor_, end);
      // The stream may swallow previously-announced out-of-order ranges that
      // are now contiguous (the hole just filled).
      MergeOooIntoCursor();
    } else {
      EXPECT_GT(begin, rcv_cursor_) << "out-of-order segment must be ahead of the stream";
      // Any byte may be announced out-of-order at most once.
      for (auto& [b, e] : ooo_ranges_) {
        EXPECT_TRUE(end <= b || begin >= e) << "duplicate out-of-order announcement";
      }
      ooo_ranges_.emplace_back(begin, end);
    }
  }
  void OnAppRead(uint64_t begin, uint64_t end) {
    EXPECT_EQ(begin, read_cursor_) << "app reads must be contiguous";
    EXPECT_LE(end, rcv_cursor_) << "cannot read bytes TCP has not delivered";
    read_cursor_ = end;
  }

  void MergeOooIntoCursor() {
    bool merged = true;
    while (merged) {
      merged = false;
      for (auto it = ooo_ranges_.begin(); it != ooo_ranges_.end(); ++it) {
        if (it->first <= rcv_cursor_) {
          rcv_cursor_ = std::max(rcv_cursor_, it->second);
          ooo_ranges_.erase(it);
          merged = true;
          break;
        }
      }
    }
  }

  uint64_t write_cursor_ = 0;
  uint64_t first_tx_cursor_ = 0;
  uint64_t rcv_cursor_ = 0;
  uint64_t read_cursor_ = 0;
  SimTime last_event_;
  std::vector<std::pair<uint64_t, uint64_t>> ooo_ranges_;
};

class InvariantSweepTest : public ::testing::TestWithParam<double /*loss*/> {};

TEST_P(InvariantSweepTest, StreamInvariantsHoldUnderLoss) {
  PathConfig path;
  path.rate = DataRate::Mbps(20);
  path.loss_probability = GetParam();
  Testbed bed(42 + static_cast<uint64_t>(GetParam() * 1000), path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  InvariantObserver inv;
  flow.sender->telemetry().AttachSink(&inv);
  flow.receiver->telemetry().AttachSink(&inv);
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(15.0));
  EXPECT_GT(inv.read_cursor(), 100000u);  // made real progress
  EXPECT_EQ(inv.read_cursor(), flow.receiver->app_bytes_read());
}

INSTANTIATE_TEST_SUITE_P(LossLevels, InvariantSweepTest,
                         ::testing::Values(0.0, 0.005, 0.02, 0.08));

TEST(OutageTest, FlowSurvivesLinkBlackout) {
  // 10 s up, 2 s total outage, then up again — RTO backoff must carry the
  // connection across and resume transfer.
  PathConfig path;
  path.steps = {{TimeDelta::FromSecondsInt(10), DataRate::Mbps(10)},
                {TimeDelta::FromSecondsInt(2), DataRate::Zero()},
                {TimeDelta::FromSecondsInt(30), DataRate::Mbps(10)}};
  Testbed bed(7, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  RawTcpSink sink(flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(10.5));
  uint64_t before_outage = flow.receiver->app_bytes_read();
  bed.loop().RunUntil(Sec(12.0));  // inside the blackout
  bed.loop().RunUntil(Sec(25.0));  // well after recovery
  uint64_t after = flow.receiver->app_bytes_read();
  EXPECT_GT(before_outage, 5'000'000u);
  // Recovered: at least ~8 of the 13 post-outage seconds at ~10 Mbps.
  EXPECT_GT(after - before_outage, 8'000'000u);
  // Everything TCP delivered is readable or already read (a wakeup may be
  // pending at the cutoff instant).
  EXPECT_EQ(flow.receiver->GetTcpInfo().tcpi_bytes_received,
            flow.receiver->app_bytes_read() + flow.receiver->ReadableBytes());
}

TEST(OutageTest, ElementFlowSurvivesBlackoutToo) {
  PathConfig path;
  path.steps = {{TimeDelta::FromSecondsInt(8), DataRate::Mbps(10)},
                {TimeDelta::FromSecondsInt(2), DataRate::Zero()},
                {TimeDelta::FromSecondsInt(30), DataRate::Mbps(10)}};
  Testbed bed(8, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  InterposedSink sink(&bed.loop(), flow.sender);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(Sec(25.0));
  // The pacing gate must not deadlock across the outage.
  double goodput = RateOver(static_cast<int64_t>(flow.receiver->app_bytes_read()),
                            TimeDelta::FromSecondsInt(25))
                       .ToMbps();
  EXPECT_GT(goodput, 6.0);
}

TEST(ManyFlowsTest, TwentyFlowsShareAndAllProgress) {
  PathConfig path;
  path.rate = DataRate::Mbps(100);
  path.queue_limit_packets = 600;
  Testbed bed(9, path);
  std::vector<Testbed::Flow> flows;
  std::vector<std::unique_ptr<RawTcpSink>> sinks;
  std::vector<std::unique_ptr<IperfApp>> apps;
  std::vector<std::unique_ptr<SinkApp>> readers;
  for (int i = 0; i < 20; ++i) {
    flows.push_back(bed.CreateFlow(TcpSocket::Config{}));
    sinks.push_back(std::make_unique<RawTcpSink>(flows.back().sender));
    apps.push_back(std::make_unique<IperfApp>(&bed.loop(), sinks.back().get()));
    readers.push_back(std::make_unique<SinkApp>(flows.back().receiver));
    apps.back()->Start();
    readers.back()->Start();
  }
  bed.loop().RunUntil(Sec(30.0));
  double total = 0;
  for (auto& f : flows) {
    double mbps = RateOver(static_cast<int64_t>(f.receiver->app_bytes_read()),
                           TimeDelta::FromSecondsInt(30))
                      .ToMbps();
    EXPECT_GT(mbps, 0.5) << "a flow starved";
    total += mbps;
  }
  EXPECT_GT(total, 80.0);
  EXPECT_LT(total, 101.0);
}

TEST(WifiStressTest, BurstLossRadioStillDelivers) {
  PathConfig path = WifiProfile();
  Testbed bed(10, path);
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
  // Mean radio rate ~55 Mbps with fades; TCP should still extract a good share.
  EXPECT_GT(goodput, 20.0);
  EXPECT_GT(flow.sender->total_retransmits(), 0u);
}

TEST(EventLoopStressTest, HundredThousandEventsWithChurn) {
  EventLoop loop;
  Rng rng(77);
  int64_t executed = 0;
  std::deque<Timer> timers;
  int64_t cancelled = 0;
  for (int i = 0; i < 100000; ++i) {
    timers.emplace_back(&loop, [&executed] { ++executed; });
    timers.back().RestartAfter(TimeDelta::FromMicros(rng.UniformInt(0, 1'000'000)));
  }
  for (size_t i = 0; i < timers.size(); i += 3) {
    EXPECT_TRUE(timers[i].Cancel());
    ++cancelled;
  }
  loop.Run();
  EXPECT_EQ(executed, 100000 - cancelled);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(TinyTransferTest, SubMssMessagesDeliveredPromptly) {
  // Nagle must not strand small messages forever: a lone 100-byte write goes
  // out once the pipe is idle.
  PathConfig path;
  Testbed bed(12, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  uint64_t got = 0;
  SimTime got_at;
  flow.receiver->SetReadableCallback([&] {
    size_t n;
    while ((n = flow.receiver->Read(4096)) > 0) {
      got += n;
      got_at = bed.loop().now();
    }
  });
  flow.sender->SetEstablishedCallback([&] { flow.sender->Write(100); });
  bed.loop().RunUntil(Sec(2.0));
  EXPECT_EQ(got, 100u);
  // One handshake RTT + one data one-way trip + wakeup: well under a second.
  EXPECT_LT(got_at.ToSeconds(), 0.5);
}

TEST(TinyTransferTest, RequestResponsePingPong) {
  // 200 application-layer ping-pongs over one full-duplex connection.
  PathConfig path;
  path.one_way_delay = TimeDelta::FromMillis(5);
  Testbed bed(13, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  int pongs = 0;
  flow.receiver->SetReadableCallback([&] {
    while (flow.receiver->Read(4096) > 0) {
    }
    flow.receiver->Write(200);  // pong
  });
  flow.sender->SetReadableCallback([&] {
    while (flow.sender->Read(4096) > 0) {
    }
    if (++pongs < 200) {
      flow.sender->Write(100);  // next ping
    }
  });
  flow.sender->SetEstablishedCallback([&] { flow.sender->Write(100); });
  bed.loop().RunUntil(Sec(30.0));
  EXPECT_EQ(pongs, 200);
}

}  // namespace
}  // namespace element
