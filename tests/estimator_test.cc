// Unit tests for ELEMENT's delay estimators (Algorithms 1 and 2) and the
// tcp_info tracker, driven by synthetic tcp_info snapshots, and for the
// accuracy scoring against ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/element/delay_estimator.h"
#include "src/element/estimation_error.h"
#include "src/element/tcp_info_tracker.h"
#include "src/tcpsim/cc_reno.h"
#include "src/tcpsim/testbed.h"
#include "src/telemetry/spine.h"

namespace element {
namespace {

SimTime Ms(int64_t ms) { return SimTime::FromNanos(ms * 1'000'000); }

TcpInfoData SenderInfo(uint64_t bytes_acked, uint32_t unacked, uint32_t mss = 1000) {
  TcpInfoData info;
  info.tcpi_bytes_acked = bytes_acked;
  info.tcpi_unacked = unacked;
  info.tcpi_snd_mss = mss;
  info.tcpi_snd_cwnd = 10;
  info.tcpi_snd_ssthresh = 100;
  info.tcpi_rtt_us = 50000;
  return info;
}

TcpInfoData ReceiverInfo(uint64_t segs_in, uint32_t rcv_mss = 1000) {
  TcpInfoData info;
  info.tcpi_segs_in = segs_in;
  info.tcpi_rcv_mss = rcv_mss;
  return info;
}

// Keeps every record a per-flow sink receives.
struct RecordLog : telemetry::RecordSink {
  void OnRecord(const telemetry::TraceRecord& record) override { records.push_back(record); }
  std::vector<telemetry::TraceRecord> records;
};

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

// The record path mirrors the stored series: one kDelaySample estimate per
// point, in order, with the same time and the same value bits in the
// estimator's component, 0.0 in the others, tagged with the bound flow id.
void ExpectRecordsMirrorSeries(const std::vector<telemetry::TraceRecord>& records,
                               const TimeSeries& series, bool receiver, uint64_t flow_id) {
  ASSERT_EQ(records.size(), series.count());
  for (size_t i = 0; i < records.size(); ++i) {
    const telemetry::TraceRecord& r = records[i];
    EXPECT_EQ(r.kind, telemetry::RecordKind::kDelaySample);
    EXPECT_EQ(r.flags, telemetry::kFlagEstimate);
    EXPECT_EQ(r.flow_id, flow_id);
    EXPECT_EQ(r.t, series.points()[i].t);
    double own = receiver ? r.u.delay.receiver_s : r.u.delay.sender_s;
    double other = receiver ? r.u.delay.sender_s : r.u.delay.receiver_s;
    EXPECT_TRUE(SameBits(own, series.points()[i].v)) << "point " << i;
    EXPECT_EQ(other, 0.0);
    EXPECT_EQ(r.u.delay.network_s, 0.0);
  }
}

TEST(SenderEstimatorTest, EstimateFormulaMatchesPaper) {
  // B_est = bytes_acked + unacked * snd_mss.
  EXPECT_EQ(SenderDelayEstimator::EstimateSentBytes(SenderInfo(5000, 3)), 8000u);
  EXPECT_EQ(SenderDelayEstimator::EstimateSentBytes(SenderInfo(0, 0)), 0u);
}

TEST(SenderEstimatorTest, MatchesRecordsAgainstEstimatedSentBytes) {
  SenderDelayEstimator est;
  RecordLog log;
  est.telemetry().AttachSink(&log);
  const std::vector<telemetry::TraceRecord>& reports = log.records;

  est.OnAppSend(1000, Ms(0));
  est.OnAppSend(2000, Ms(10));
  est.OnAppSend(3000, Ms(20));
  // Estimated sent bytes = 2000: the first two records have left TCP.
  est.OnTcpInfoSample(SenderInfo(1000, 1), Ms(50));
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_DOUBLE_EQ(reports[0].u.delay.sender_s, 0.050);
  EXPECT_DOUBLE_EQ(reports[1].u.delay.sender_s, 0.040);
  EXPECT_EQ(est.pending_records(), 1u);
  EXPECT_EQ(est.latest_delay(), TimeDelta::FromMillis(40));
  // Remaining record matches later.
  est.OnTcpInfoSample(SenderInfo(3000, 0), Ms(70));
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_DOUBLE_EQ(reports[2].u.delay.sender_s, 0.050);
  EXPECT_EQ(reports[2].t, Ms(70));
  EXPECT_EQ(est.pending_records(), 0u);
}

TEST(SenderEstimatorTest, NoReportWhenNothingLeftTcp) {
  SenderDelayEstimator est;
  est.OnAppSend(5000, Ms(0));
  est.OnTcpInfoSample(SenderInfo(0, 2), Ms(10));  // only 2000 estimated sent
  EXPECT_EQ(est.delay_series().count(), 0u);
  EXPECT_EQ(est.pending_records(), 1u);
}

TEST(SenderEstimatorTest, SeriesAndSamplesAccumulate) {
  SenderDelayEstimator est;
  RecordLog log;
  est.telemetry().AttachSink(&log);
  for (int i = 0; i < 10; ++i) {
    est.OnAppSend(static_cast<uint64_t>(i + 1) * 100, Ms(i * 10));
  }
  est.OnTcpInfoSample(SenderInfo(1000, 0), Ms(200));
  EXPECT_EQ(est.delay_series().count(), 10u);
  EXPECT_EQ(log.records.size(), 10u);
}

TEST(SenderEstimatorTest, RecordsMirrorSeries) {
  telemetry::TelemetrySpine spine;
  SenderDelayEstimator est;
  est.BindTelemetry(&spine, 7);
  RecordLog log;
  est.telemetry().AttachSink(&log);
  // Irregular writes and partial matches over a few polls, with delays that
  // are not round in binary.
  uint64_t written = 0;
  for (int poll = 1; poll <= 20; ++poll) {
    for (int w = 0; w < poll % 4 + 1; ++w) {
      written += 333;
      est.OnAppSend(written, SimTime::FromNanos(poll * 7'000'001LL + w * 1'234'567LL));
    }
    est.OnTcpInfoSample(SenderInfo(written - 700, 0), SimTime::FromNanos(poll * 9'100'003LL));
  }
  ASSERT_GT(est.delay_series().count(), 10u);
  ExpectRecordsMirrorSeries(log.records, est.delay_series(), /*receiver=*/false, 7);
}

TEST(SenderEstimatorTest, NotsentFormulaIsExactWithPartialSegments) {
  SenderDelayEstimator est(SenderDelayEstimator::SentBytesFormula::kNotsentBased);
  est.OnAppSend(2500, Ms(0));  // app wrote 2500 bytes total
  TcpInfoData info = SenderInfo(/*acked=*/0, /*unacked=*/2);  // paper would say 2000
  info.tcpi_notsent_bytes = 600;  // exactly 1900 actually left TCP
  EXPECT_EQ(est.EstimateSentBytesForMatching(info), 1900u);
  // The paper formula on the same snapshot rounds to whole segments.
  EXPECT_EQ(SenderDelayEstimator::EstimateSentBytes(info), 2000u);
}

TEST(ReceiverEstimatorTest, RecordsMirrorSeries) {
  telemetry::TelemetrySpine spine;
  ReceiverDelayEstimator est;
  est.BindTelemetry(&spine, 9);
  RecordLog log;
  est.telemetry().AttachSink(&log);
  // Each poll lands 2000 bytes at TCP; each read, 3.3 ms later, consumes 1500.
  for (int i = 1; i <= 30; ++i) {
    SimTime poll = SimTime::FromNanos(i * 10'000'007LL);
    est.OnTcpInfoSample(ReceiverInfo(static_cast<uint64_t>(i) * 2), poll);
    est.OnAppReceive(static_cast<uint64_t>(i) * 1500, poll + TimeDelta::FromNanos(3'333'331));
  }
  ASSERT_GT(est.delay_series().count(), 10u);
  ExpectRecordsMirrorSeries(log.records, est.delay_series(), /*receiver=*/true, 9);
}

TEST(ReceiverEstimatorTest, EstimateFormulaMatchesPaper) {
  EXPECT_EQ(ReceiverDelayEstimator::EstimateReceivedBytes(ReceiverInfo(7)), 7000u);
}

TEST(ReceiverEstimatorTest, RecordsOnlyOnProgress) {
  ReceiverDelayEstimator est;
  est.OnTcpInfoSample(ReceiverInfo(5), Ms(0));
  est.OnTcpInfoSample(ReceiverInfo(5), Ms(10));  // no progress: no new record
  est.OnTcpInfoSample(ReceiverInfo(6), Ms(20));
  EXPECT_EQ(est.pending_records(), 2u);
}

TEST(ReceiverEstimatorTest, ReadMatchesCoveringRecord) {
  ReceiverDelayEstimator est;
  est.OnTcpInfoSample(ReceiverInfo(2), Ms(0));   // 2000 bytes at TCP by t=0
  est.OnTcpInfoSample(ReceiverInfo(4), Ms(10));  // 4000 bytes at TCP by t=10
  // App reads 1500 bytes at t=30: record "2000@0" covers it (first with
  // bytes > 1500): delay 30 ms.
  est.OnAppReceive(1500, Ms(30));
  ASSERT_GT(est.delay_series().count(), 0u);
  EXPECT_EQ(est.latest_delay(), TimeDelta::FromMillis(30));
  // App reads to 2500 at t=35: the 2000@0 record is consumed; 4000@10 covers:
  // delay 25 ms.
  est.OnAppReceive(2500, Ms(35));
  EXPECT_EQ(est.latest_delay(), TimeDelta::FromMillis(25));
  EXPECT_EQ(est.pending_records(), 1u);
}

TEST(ReceiverEstimatorTest, NoEstimateWhenAllRecordsConsumed) {
  ReceiverDelayEstimator est;
  est.OnTcpInfoSample(ReceiverInfo(1), Ms(0));
  est.OnAppReceive(5000, Ms(10));  // read beyond all records
  EXPECT_EQ(est.delay_series().count(), 0u);
  EXPECT_EQ(est.pending_records(), 0u);
}

TEST(TrackerTest, PollsAtConfiguredPeriod) {
  PathConfig path;
  Testbed bed(1, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  TcpInfoTracker tracker(&bed.loop(), flow.sender, TimeDelta::FromMillis(10));
  tracker.Start();
  bed.loop().RunUntil(SimTime::FromNanos(1'005'000'000));
  EXPECT_NEAR(static_cast<double>(tracker.samples_taken()), 100.0, 2.0);
}

TEST(TrackerTest, ThroughputTracksAckedBytes) {
  PathConfig path;
  path.rate = DataRate::Mbps(10);
  Testbed bed(2, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  TcpInfoTracker tracker(&bed.loop(), flow.sender);
  tracker.Start();
  // Saturating sender + reader.
  flow.sender->SetEstablishedCallback([&] { flow.sender->Write(1 << 24); });
  flow.sender->SetWritableCallback([&] { flow.sender->Write(1 << 24); });
  flow.receiver->SetReadableCallback([&] {
    while (flow.receiver->Read(1 << 20) > 0) {
    }
  });
  bed.loop().RunUntil(SimTime::FromNanos(15'000'000'000LL));
  EXPECT_NEAR(tracker.throughput().ToMbps(), 9.6, 1.0);
  EXPECT_GT(tracker.latest_info().tcpi_bytes_acked, 10'000'000u);
}

// The tracker computes its throughput once per poll. After every poll it
// must equal the trailing-window formula over every (poll time, bytes acked)
// pair: drop the oldest point while more than two remain and it is more than
// the 1 s window old, then divide the acked bytes between the oldest and
// newest points by the time between them.
TEST(TrackerTest, CachedThroughputMatchesTrailingWindow) {
  PathConfig path;
  path.rate = DataRate::Mbps(10);
  path.loss_probability = 0.01;
  Testbed bed(3, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  TcpInfoTracker tracker(&bed.loop(), flow.sender);
  EXPECT_EQ(tracker.throughput().bps(), 0.0);
  flow.sender->SetEstablishedCallback([&] { flow.sender->Write(1 << 24); });
  flow.sender->SetWritableCallback([&] { flow.sender->Write(1 << 24); });
  flow.receiver->SetReadableCallback([&] {
    while (flow.receiver->Read(1 << 20) > 0) {
    }
  });
  struct Point {
    SimTime t;
    uint64_t bytes_acked;
  };
  std::vector<Point> history;
  size_t oldest = 0;
  int nonzero = 0;
  SimTime t;
  for (int i = 0; i < 400; ++i) {
    // Uneven steps, and two polls at one instant now and then.
    t = t + TimeDelta::FromMillis(i % 7 == 0 ? 0 : 3 + i % 13);
    bed.loop().RunUntil(t);
    tracker.PollNow();
    history.push_back({t, tracker.latest_info().tcpi_bytes_acked});
    while (history.size() - oldest > 2 &&
           t - history[oldest].t > TimeDelta::FromMillis(1000)) {
      ++oldest;
    }
    const Point& first = history[oldest];
    const Point& last = history.back();
    TimeDelta span = last.t - first.t;
    DataRate expected =
        history.size() - oldest < 2 || span <= TimeDelta::Zero()
            ? DataRate::Zero()
            : RateOver(static_cast<int64_t>(last.bytes_acked - first.bytes_acked), span);
    ASSERT_TRUE(SameBits(tracker.throughput().bps(), expected.bps())) << "poll " << i;
    nonzero += expected.bps() > 0.0 ? 1 : 0;
  }
  EXPECT_GT(oldest, 0u);  // the window slid
  EXPECT_GT(nonzero, 300);
}

// Names the TcpInfoData fields in which `a` and `b` differ ("" if none).
std::string DiffTcpInfo(const TcpInfoData& a, const TcpInfoData& b) {
  std::string diff;
  auto field = [&diff](const char* name, uint64_t x, uint64_t y) {
    if (x != y) {
      diff += std::string(" ") + name + " " + std::to_string(x) + "!=" + std::to_string(y);
    }
  };
  field("bytes_acked", a.tcpi_bytes_acked, b.tcpi_bytes_acked);
  field("unacked", a.tcpi_unacked, b.tcpi_unacked);
  field("snd_mss", a.tcpi_snd_mss, b.tcpi_snd_mss);
  field("snd_cwnd", a.tcpi_snd_cwnd, b.tcpi_snd_cwnd);
  field("snd_ssthresh", a.tcpi_snd_ssthresh, b.tcpi_snd_ssthresh);
  field("segs_out", a.tcpi_segs_out, b.tcpi_segs_out);
  field("total_retrans", a.tcpi_total_retrans, b.tcpi_total_retrans);
  field("notsent_bytes", a.tcpi_notsent_bytes, b.tcpi_notsent_bytes);
  field("segs_in", a.tcpi_segs_in, b.tcpi_segs_in);
  field("rcv_mss", a.tcpi_rcv_mss, b.tcpi_rcv_mss);
  field("bytes_received", a.tcpi_bytes_received, b.tcpi_bytes_received);
  field("rtt_us", a.tcpi_rtt_us, b.tcpi_rtt_us);
  field("rttvar_us", a.tcpi_rttvar_us, b.tcpi_rttvar_us);
  field("min_rtt_us", a.tcpi_min_rtt_us, b.tcpi_min_rtt_us);
  field("delivery_rate_bps", a.tcpi_delivery_rate_bps, b.tcpi_delivery_rate_bps);
  field("pacing_rate_bps", a.tcpi_pacing_rate_bps, b.tcpi_pacing_rate_bps);
  return diff;
}

// Each case drives senders through a different place in TcpSocket that
// changes a GetTcpInfo input, and compares each sender's shared page with
// GetTcpInfo after every step and after every application write.
struct SharedPageCase {
  const char* name;
  PathConfig path;
  TcpSocket::Config socket;
  TimeDelta step;
  int steps;
  size_t first_write;  // at establishment
  int write_every;     // steps between the writes that follow (0: none)
  size_t write_bytes;
  int flows = 1;
  bool slow_paced_reno = false;  // senders run SlowPacedRenoCc
};

// Reno paced at 16 kbps: a full segment waits ~0.77 s for its pacing slot,
// longer than an RTO on a 50 ms path takes to fire, so each RTO collapses
// the window while its resend is held back and no segment goes out.
class SlowPacedRenoCc : public RenoCc {
 public:
  std::optional<DataRate> PacingRate() const override { return DataRate::BitsPerSecond(16000); }
};

std::vector<SharedPageCase> SharedPageCases() {
  std::vector<SharedPageCase> cases;
  // A write sends nothing while the window is full, yet it changes
  // tcpi_notsent_bytes: the page must show it at once.
  SharedPageCase base{"cwnd_limited_writes", PathConfig{}, TcpSocket::Config{},
                      TimeDelta::FromMillis(7), 300, 100000, 1, 3000};
  cases.push_back(base);

  SharedPageCase bulk = base;
  bulk.step = TimeDelta::FromMillis(1);
  bulk.steps = 6000;
  bulk.write_every = 10;
  bulk.write_bytes = 1 << 20;

  // Short transfers on a lossy link: lost tails are repaired by the RTO,
  // whose window collapse the page must show.
  SharedPageCase lossy = bulk;
  lossy.name = "rto_on_lossy_link";
  lossy.path.loss_probability = 0.3;
  lossy.steps = 4000;
  lossy.first_write = 20000;
  lossy.write_every = 0;
  lossy.flows = 40;
  cases.push_back(lossy);

  // Bursts 600 ms apart leave the sender idle for longer than its RTO, so
  // each burst starts with the RFC 2861 window decay.
  SharedPageCase idle = bulk;
  idle.name = "idle_restart";
  idle.first_write = 1 << 20;
  idle.write_every = 600;
  idle.write_bytes = 30000;
  cases.push_back(idle);

  SharedPageCase bbr = bulk;
  bbr.name = "bbr_pacing";
  bbr.socket.congestion_control = "bbr";
  cases.push_back(bbr);

  SharedPageCase ecn = bulk;
  ecn.name = "codel_ecn_marks";
  ecn.path.qdisc = QdiscType::kCoDel;
  ecn.path.ecn = true;
  ecn.socket.ecn = true;
  cases.push_back(ecn);

  // An RTO whose resend pacing holds back: the window collapse must reach
  // the page although no segment is sent or received until the resend.
  SharedPageCase held = lossy;
  held.name = "rto_resend_held_by_pacing";
  held.step = TimeDelta::FromMillis(10);
  held.steps = 3000;
  held.flows = 1;
  held.slow_paced_reno = true;
  cases.push_back(held);
  return cases;
}

TEST(TrackerTest, SharedPageMatchesGetTcpInfo) {
  for (const SharedPageCase& c : SharedPageCases()) {
    SCOPED_TRACE(c.name);
    Testbed bed(4, c.path);
    std::vector<TcpSocket*> senders;
    for (int i = 0; i < c.flows; ++i) {
      Testbed::Flow flow = bed.CreateFlow(c.socket);
      TcpSocket* sender = flow.sender;
      TcpSocket* receiver = flow.receiver;
      if (c.slow_paced_reno) {
        sender->TestOnlySetCongestionControl(std::make_unique<SlowPacedRenoCc>());
      }
      sender->SetEstablishedCallback([sender, &c] { sender->Write(c.first_write); });
      receiver->SetReadableCallback([receiver] {
        while (receiver->Read(1 << 20) > 0) {
        }
      });
      senders.push_back(sender);
    }
    std::string diff;
    std::vector<TcpInfoData> prev(senders.size());
    bool saw_rto_collapse = false;
    bool saw_cut_without_loss = false;
    bool saw_cut_without_traffic = false;
    uint64_t peak_pacing_bps = 0;
    for (int step = 1; step <= c.steps && diff.empty(); ++step) {
      bed.loop().RunUntil(SimTime::FromNanos(c.step.nanos() * step));
      for (size_t i = 0; i < senders.size() && diff.empty(); ++i) {
        TcpInfoData info = senders[i]->GetTcpInfo();
        diff = DiffTcpInfo(info, senders[i]->SharedInfoPage());
        EXPECT_EQ(diff, "") << "flow " << i << " after step " << step;
        saw_rto_collapse |= info.tcpi_snd_cwnd < prev[i].tcpi_snd_cwnd && info.tcpi_snd_cwnd <= 2;
        saw_cut_without_loss |= info.tcpi_snd_cwnd < prev[i].tcpi_snd_cwnd &&
                                info.tcpi_total_retrans == prev[i].tcpi_total_retrans;
        saw_cut_without_traffic |= info.tcpi_snd_cwnd < prev[i].tcpi_snd_cwnd &&
                                   info.tcpi_segs_out == prev[i].tcpi_segs_out &&
                                   info.tcpi_segs_in == prev[i].tcpi_segs_in;
        peak_pacing_bps = std::max(peak_pacing_bps, info.tcpi_pacing_rate_bps);
        prev[i] = info;
      }
      if (diff.empty() && c.write_every > 0 && step % c.write_every == 0) {
        senders[0]->Write(c.write_bytes);
        diff = DiffTcpInfo(senders[0]->GetTcpInfo(), senders[0]->SharedInfoPage());
        EXPECT_EQ(diff, "") << "after the write at step " << step;
      }
    }
    // Each case reached the state change it is there for.
    std::string name = c.name;
    if (name == "rto_on_lossy_link") {
      EXPECT_TRUE(saw_rto_collapse);
    } else if (name == "idle_restart" || name == "codel_ecn_marks") {
      EXPECT_TRUE(saw_cut_without_loss);
    } else if (name == "bbr_pacing") {
      EXPECT_GT(peak_pacing_bps, 0u);
    } else if (name == "rto_resend_held_by_pacing") {
      EXPECT_TRUE(saw_cut_without_traffic);
    }
    if (name == "codel_ecn_marks") {
      EXPECT_GT(bed.path().forward().qdisc().stats().ecn_marked_packets, 0u);
    }
    // Repeated reads without traffic return the same cached page.
    const TcpInfoData* p1 = &senders[0]->SharedInfoPage();
    const TcpInfoData* p2 = &senders[0]->SharedInfoPage();
    EXPECT_EQ(p1, p2);
  }
}

TEST(TrackerTest, SharedPageModeTracksEqually) {
  PathConfig path;
  Testbed bed(5, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  TcpInfoTracker tracker(&bed.loop(), flow.sender);
  tracker.Start();
  flow.sender->SetEstablishedCallback([&] { flow.sender->Write(1 << 22); });
  flow.sender->SetWritableCallback([&] { flow.sender->Write(1 << 22); });
  flow.receiver->SetReadableCallback([&] {
    while (flow.receiver->Read(1 << 20) > 0) {
    }
  });
  bed.loop().RunUntil(SimTime::FromNanos(10'000'000'000LL));
  EXPECT_NEAR(tracker.throughput().ToMbps(), 9.6, 1.0);
  EXPECT_GT(tracker.latest_info().tcpi_bytes_acked, 5'000'000u);
}

TEST(TrackerTest, FeedsBothEstimators) {
  PathConfig path;
  Testbed bed(3, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  SenderDelayEstimator snd;
  ReceiverDelayEstimator rcv;
  TcpInfoTracker snd_tracker(&bed.loop(), flow.sender);
  TcpInfoTracker rcv_tracker(&bed.loop(), flow.receiver);
  snd_tracker.set_sender_estimator(&snd);
  rcv_tracker.set_receiver_estimator(&rcv);
  snd_tracker.Start();
  rcv_tracker.Start();
  flow.sender->SetEstablishedCallback([&] {
    size_t w = flow.sender->Write(200000);
    snd.OnAppSend(flow.sender->app_bytes_written(), bed.loop().now());
    (void)w;
  });
  flow.receiver->SetReadableCallback([&] {
    while (flow.receiver->Read(1 << 20) > 0) {
    }
    rcv.OnAppReceive(flow.receiver->app_bytes_read(), bed.loop().now());
  });
  bed.loop().RunUntil(SimTime::FromNanos(10'000'000'000LL));
  EXPECT_GT(snd.delay_series().count(), 0u);
  EXPECT_GT(rcv.delay_series().count(), 0u);
  EXPECT_GE(snd.latest_delay(), TimeDelta::Zero());
}

// Scoring as it was before StreamingScorer: the stored truth interpolated at
// each estimate.
struct InterpolatedScore {
  std::vector<double> errors;
  double truth_sum = 0.0;
};

InterpolatedScore ScoreByInterpolation(const TimeSeries& estimates, const TimeSeries& truth) {
  InterpolatedScore score;
  for (const TimeSeries::Point& p : estimates.points()) {
    double gt = 0.0;
    if (!truth.InterpolateAt(p.t, &gt)) {
      continue;
    }
    score.errors.push_back(std::abs(p.v - gt));
    score.truth_sum += gt;
  }
  return score;
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameScore(const InterpolatedScore& want, const AccuracyResult& got) {
  ASSERT_EQ(got.compared_samples, want.errors.size());
  ASSERT_EQ(got.errors.count(), want.errors.size());
  for (size_t i = 0; i < want.errors.size(); ++i) {
    ASSERT_EQ(Bits(got.errors.samples()[i]), Bits(want.errors[i])) << "error " << i;
  }
  double mean_truth =
      want.errors.empty() ? 0.0 : want.truth_sum / static_cast<double>(want.errors.size());
  EXPECT_EQ(Bits(got.mean_ground_truth_s), Bits(mean_truth));
}

// `count` points from `start`, 0-2 steps of 1 ms apart, so equal-time groups
// are common.
TimeSeries RandomSeries(Rng* rng, int64_t start_ms, int count) {
  TimeSeries series;
  int64_t t = start_ms;
  for (int i = 0; i < count; ++i) {
    t += rng->UniformInt(0, 2);
    series.Add(Ms(t), rng->Uniform(0.0, 0.2));
  }
  return series;
}

// Feeds both series to a scorer in time order, choosing at random which
// stream goes first at equal times (the live order is up to the event loop).
AccuracyResult ScoreInRandomOrder(Rng* rng, const TimeSeries& estimates,
                                  const TimeSeries& truth) {
  StreamingScorer scorer;
  const std::vector<TimeSeries::Point>& e = estimates.points();
  const std::vector<TimeSeries::Point>& g = truth.points();
  size_t i = 0;
  size_t j = 0;
  while (i < e.size() || j < g.size()) {
    bool estimate_next = j == g.size() ||
                         (i < e.size() && (e[i].t < g[j].t ||
                                           (e[i].t == g[j].t && rng->Bernoulli(0.5))));
    if (estimate_next) {
      scorer.OnEstimate(e[i].t, e[i].v);
      ++i;
    } else {
      scorer.OnTruth(g[j].t, g[j].v);
      ++j;
    }
  }
  return scorer.Result();
}

void ExpectStreamingMatchesInterpolation(Rng* rng, const TimeSeries& estimates,
                                         const TimeSeries& truth) {
  InterpolatedScore want = ScoreByInterpolation(estimates, truth);
  ExpectSameScore(want, ScoreEstimates(estimates, truth));
  ExpectSameScore(want, ScoreInRandomOrder(rng, estimates, truth));
}

TEST(StreamingScorerTest, MatchesInterpolationOnRandomSeries) {
  Rng rng(15);
  for (int trial = 0; trial < 2000; ++trial) {
    // Estimates start before, at or after the first truth point and run
    // past the last; a quarter of the trials have no truth at all.
    int truth_count = trial % 4 == 0 ? 0 : static_cast<int>(rng.UniformInt(1, 30));
    TimeSeries truth = RandomSeries(&rng, rng.UniformInt(0, 10), truth_count);
    TimeSeries estimates =
        RandomSeries(&rng, rng.UniformInt(0, 20), static_cast<int>(rng.UniformInt(0, 40)));
    ExpectStreamingMatchesInterpolation(&rng, estimates, truth);
    if (HasFatalFailure()) {
      FAIL() << "trial " << trial;
    }
  }
}

TEST(StreamingScorerTest, MatchesInterpolationAtTheEdges) {
  Rng rng(16);
  TimeSeries truth;
  truth.Add(Ms(10), 0.010);
  truth.Add(Ms(10), 0.030);  // a group at the first time
  truth.Add(Ms(20), 0.050);
  truth.Add(Ms(30), 0.020);
  truth.Add(Ms(30), 0.040);
  truth.Add(Ms(30), 0.060);  // a group at the last time
  TimeSeries estimates;
  for (int64_t t : {0, 5, 10, 10, 15, 20, 25, 30, 30, 35}) {
    estimates.Add(Ms(t), 0.001 * static_cast<double>(t));
  }
  ExpectStreamingMatchesInterpolation(&rng, estimates, truth);

  // Estimates before, at and after a single truth point, and with no truth.
  TimeSeries single;
  single.Add(Ms(20), 0.025);
  ExpectStreamingMatchesInterpolation(&rng, estimates, single);
  AccuracyResult none = ScoreEstimates(estimates, TimeSeries());
  EXPECT_EQ(none.compared_samples, 0u);
  EXPECT_EQ(none.errors.count(), 0u);
  EXPECT_EQ(none.mean_ground_truth_s, 0.0);
}

TEST(StreamingScorerTest, ResultSoFarLeavesTheScorerGoing) {
  StreamingScorer scorer;
  scorer.OnTruth(Ms(10), 0.010);
  scorer.OnEstimate(Ms(15), 0.012);
  // Clamped to the last truth point for now...
  AccuracyResult early = scorer.Result();
  ASSERT_EQ(early.compared_samples, 1u);
  EXPECT_NEAR(early.errors.samples()[0], 0.002, 1e-12);
  // ...then interpolated once the next point arrives.
  scorer.OnTruth(Ms(20), 0.020);
  AccuracyResult late = scorer.Result();
  ASSERT_EQ(late.compared_samples, 1u);
  EXPECT_NEAR(late.errors.samples()[0], 0.003, 1e-12);
}

// The median is selected, not sorted for: for every size and with many
// ties it must equal the sorted Quantile(0.5) bit for bit.
TEST(StreamingScorerTest, MedianBySelectionMatchesSortedQuantile) {
  Rng rng(17);
  for (int n = 1; n <= 64; ++n) {
    for (int trial = 0; trial < 20; ++trial) {
      // Errors from a handful of values, so ties are the rule.
      StreamingScorer scorer;
      SampleSet errors;
      for (int i = 0; i < n; ++i) {
        double truth = 0.001 * static_cast<double>(rng.UniformInt(0, 5));
        double estimate = trial % 2 == 0 ? 0.0 : rng.Uniform(0.0, 0.01);
        scorer.OnTruth(Ms(2 * i), truth);
        scorer.OnEstimate(Ms(2 * i + 1), estimate);
        errors.Add(std::abs(estimate - truth));
      }
      AccuracyResult result = scorer.Result();
      ASSERT_EQ(result.compared_samples, static_cast<size_t>(n));
      SampleSet sorted = result.errors;
      EXPECT_EQ(Bits(result.median_abs_error_s), Bits(sorted.Quantile(0.5)))
          << "n " << n << " trial " << trial;
      double median = errors.Median();
      EXPECT_EQ(Bits(median), Bits(errors.Quantile(0.5))) << "n " << n;
    }
  }
}

}  // namespace
}  // namespace element
