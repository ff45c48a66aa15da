// Protocol-level unit tests for TcpSocket: the socket is wired to a capturing
// sink and driven with hand-crafted segments, so handshake emissions, ACK
// policy, SACK block construction, ECN echo, Nagle, and window handling can
// be asserted packet by packet.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/netsim/pipe.h"
#include "src/tcpsim/tcp_segment.h"
#include "src/tcpsim/tcp_socket.h"

namespace element {
namespace {

const TcpSegmentPayload& Tcp(const Packet& pkt) {
  return *static_cast<const TcpSegmentPayload*>(pkt.payload.get());
}

class CaptureSink : public PacketSink {
 public:
  void Deliver(Packet pkt) override { sent.push_back(std::move(pkt)); }

  // Segments with payload, in emission order.
  std::vector<const Packet*> DataPackets() const {
    std::vector<const Packet*> out;
    for (const Packet& p : sent) {
      if (Tcp(p).payload_bytes > 0) {
        out.push_back(&p);
      }
    }
    return out;
  }
  std::vector<Packet> sent;
};

class RxSegmentCounter : public telemetry::RecordSink {
 public:
  void OnRecord(const telemetry::TraceRecord& r) override {
    if (r.kind == telemetry::RecordKind::kTcpRxSegment) {
      ++count;
    }
  }
  int count = 0;
};

// One socket + scripted peer.
class TcpUnitTest : public ::testing::Test {
 protected:
  TcpUnitTest() { NewSocket(1); }

  // A fresh socket on flow 1, its send buffer pinned at 1 MiB.
  void NewSocket(uint64_t seed, const TcpSocket::Config& cfg = {}) {
    socket_.reset();  // release flow id 1 before re-registering it
    socket_ = std::make_unique<TcpSocket>(&loop_, Rng(seed), cfg, /*flow=*/1, &capture_, &demux_);
    socket_->SetSndBuf(1 << 20);
  }

  void Establish() {
    socket_->Connect();
    ASSERT_FALSE(capture_.sent.empty());
    EXPECT_TRUE(Tcp(capture_.sent.back()).syn);
    TcpSegmentPayload synack;
    synack.syn = true;
    synack.ack = true;
    synack.receive_window = 1 << 24;
    Inject(synack, 60);
    ASSERT_TRUE(socket_->established());
    capture_.sent.clear();
  }

  void Inject(const TcpSegmentPayload& seg, uint32_t wire_bytes, bool ce_mark = false) {
    Packet pkt;
    pkt.flow_id = 1;
    pkt.size_bytes = wire_bytes;
    pkt.created = loop_.now();
    pkt.ecn_marked = ce_mark;
    pkt.payload = std::make_shared<TcpSegmentPayload>(seg);
    socket_->Deliver(std::move(pkt));
  }

  void InjectData(uint64_t seq, uint32_t len, bool ce_mark = false) {
    TcpSegmentPayload seg;
    seg.seq = seq;
    seg.payload_bytes = len;
    seg.receive_window = 1 << 24;
    Inject(seg, kIpTcpHeaderBytes + len, ce_mark);
  }

  void InjectAck(uint64_t ack_seq, std::vector<SackBlock> sacks = {},
                 uint64_t rwnd = 1 << 24) {
    TcpSegmentPayload seg;
    seg.ack = true;
    seg.ack_seq = ack_seq;
    seg.receive_window = rwnd;
    for (const SackBlock& b : sacks) {
      seg.sacks.push_back(b);
    }
    Inject(seg, kIpTcpHeaderBytes);
  }

  void Advance(TimeDelta d) { loop_.RunUntil(loop_.now() + d); }

  EventLoop loop_;
  CaptureSink capture_;
  Demux demux_;
  // Declared before socket_ so that it outlives every record the socket emits.
  RxSegmentCounter rx_counter_;
  std::unique_ptr<TcpSocket> socket_;
};

TEST_F(TcpUnitTest, HandshakeEmitsSynThenAck) {
  socket_->Connect();
  ASSERT_EQ(capture_.sent.size(), 1u);
  EXPECT_TRUE(Tcp(capture_.sent[0]).syn);
  EXPECT_FALSE(Tcp(capture_.sent[0]).ack);
  TcpSegmentPayload synack;
  synack.syn = true;
  synack.ack = true;
  synack.receive_window = 99999;
  Inject(synack, 60);
  EXPECT_TRUE(socket_->established());
  // The client completes with a pure ACK.
  ASSERT_EQ(capture_.sent.size(), 2u);
  EXPECT_TRUE(Tcp(capture_.sent[1]).ack);
  EXPECT_EQ(Tcp(capture_.sent[1]).payload_bytes, 0u);
}

TEST_F(TcpUnitTest, SynRetriesUntilAnswered) {
  socket_->Connect();
  EXPECT_EQ(capture_.sent.size(), 1u);
  Advance(TimeDelta::FromSecondsInt(1));
  Advance(TimeDelta::FromSecondsInt(1));
  // At least one retry SYN.
  EXPECT_GE(capture_.sent.size(), 2u);
  for (const Packet& p : capture_.sent) {
    EXPECT_TRUE(Tcp(p).syn);
  }
}

TEST_F(TcpUnitTest, SendsMssSizedSegmentsWithinWindow) {
  Establish();
  socket_->Write(10 * kDefaultMss);
  auto data = capture_.DataPackets();
  // Initial cwnd is 10 segments: everything goes out at once.
  ASSERT_EQ(data.size(), 10u);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(Tcp(*data[i]).seq, i * kDefaultMss);
    EXPECT_EQ(Tcp(*data[i]).payload_bytes, kDefaultMss);
  }
}

TEST_F(TcpUnitTest, RespectsPeerReceiveWindow) {
  Establish();
  // Peer advertised a tiny window via an ACK.
  InjectAck(0, {}, /*rwnd=*/2 * kDefaultMss);
  socket_->Write(10 * kDefaultMss);
  EXPECT_EQ(capture_.DataPackets().size(), 2u);
  // Window opens: the rest follows (within cwnd).
  InjectAck(2 * kDefaultMss, {}, /*rwnd=*/1 << 24);
  EXPECT_GT(capture_.DataPackets().size(), 2u);
}

TEST_F(TcpUnitTest, NagleHoldsSubMssTailUntilAcked) {
  Establish();
  socket_->Write(kDefaultMss + 100);  // one full segment + 100-byte tail
  auto data = capture_.DataPackets();
  ASSERT_EQ(data.size(), 1u);  // the tail is parked
  InjectAck(kDefaultMss);
  data = capture_.DataPackets();
  ASSERT_EQ(data.size(), 2u);  // ACK released it
  EXPECT_EQ(Tcp(*data[1]).payload_bytes, 100u);
}

TEST_F(TcpUnitTest, DelayedAckPolicyEverySecondSegment) {
  Establish();
  InjectData(0, kDefaultMss);
  // First in-order segment: ACK delayed.
  EXPECT_TRUE(capture_.sent.empty());
  InjectData(kDefaultMss, kDefaultMss);
  // Second: immediate cumulative ACK.
  ASSERT_EQ(capture_.sent.size(), 1u);
  EXPECT_EQ(Tcp(capture_.sent[0]).ack_seq, 2 * kDefaultMss);
}

TEST_F(TcpUnitTest, DelayedAckTimerFiresAt40Ms) {
  Establish();
  InjectData(0, kDefaultMss);
  EXPECT_TRUE(capture_.sent.empty());
  Advance(TimeDelta::FromMillis(39));
  EXPECT_TRUE(capture_.sent.empty());
  Advance(TimeDelta::FromMillis(2));
  ASSERT_EQ(capture_.sent.size(), 1u);
  EXPECT_EQ(Tcp(capture_.sent[0]).ack_seq, kDefaultMss);
}

TEST_F(TcpUnitTest, OutOfOrderTriggersImmediateSackDupack) {
  Establish();
  InjectData(0, kDefaultMss);                      // in order (ack delayed)
  InjectData(2 * kDefaultMss, kDefaultMss);        // hole at [mss, 2*mss)
  ASSERT_FALSE(capture_.sent.empty());
  const TcpSegmentPayload& dup = Tcp(capture_.sent.back());
  EXPECT_EQ(dup.ack_seq, kDefaultMss);
  ASSERT_EQ(dup.sacks.size(), 1u);
  EXPECT_EQ(dup.sacks[0].begin, 2 * kDefaultMss);
  EXPECT_EQ(dup.sacks[0].end, 3 * kDefaultMss);
}

TEST_F(TcpUnitTest, SackBlocksMostRecentFirstCappedAtFour) {
  Establish();
  // Create six separate holes: data at 2,4,6,8,10,12 * mss.
  for (int k = 2; k <= 12; k += 2) {
    InjectData(static_cast<uint64_t>(k) * kDefaultMss, kDefaultMss);
  }
  const TcpSegmentPayload& ack = Tcp(capture_.sent.back());
  ASSERT_EQ(ack.sacks.size(), TcpSegmentPayload::kMaxSackBlocks);
  // Most recent arrival (12*mss) reported first.
  EXPECT_EQ(ack.sacks[0].begin, 12 * kDefaultMss);
}

TEST_F(TcpUnitTest, SackBlocksWrapAroundFromTheNewestArrivalsBlock) {
  Establish();
  // Blocks at 2, 4, 6, 8, 10 * mss; the newest arrival (6) is in the
  // middle, so the report runs 6, 8, 10, then wraps to the lowest.
  for (uint64_t k : {8, 10, 2, 4, 6}) {
    InjectData(k * kDefaultMss, kDefaultMss);
  }
  const TcpSegmentPayload& ack = Tcp(capture_.sent.back());
  ASSERT_EQ(ack.sacks.size(), TcpSegmentPayload::kMaxSackBlocks);
  const uint64_t want[] = {6, 8, 10, 2};
  for (size_t i = 0; i < ack.sacks.size(); ++i) {
    EXPECT_EQ(ack.sacks[i].begin, want[i] * kDefaultMss) << i;
    EXPECT_EQ(ack.sacks[i].end, (want[i] + 1) * kDefaultMss) << i;
  }
}

// The SACK report as a merge, rotate and truncate over every buffered range,
// kept as the reference the socket's inline builder must match.
std::vector<SackBlock> ReferenceSackReport(const std::map<uint64_t, uint32_t>& ranges,
                                           uint64_t hint) {
  std::vector<SackBlock> merged;
  for (const auto& [seq, len] : ranges) {
    if (!merged.empty() && seq <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, seq + len);
    } else {
      merged.push_back({seq, seq + len});
    }
  }
  for (size_t i = 0; i < merged.size(); ++i) {
    if (merged[i].begin <= hint && hint < merged[i].end) {
      std::rotate(merged.begin(), merged.begin() + static_cast<long>(i), merged.end());
      break;
    }
  }
  if (merged.size() > TcpSegmentPayload::kMaxSackBlocks) {
    merged.resize(TcpSegmentPayload::kMaxSackBlocks);
  }
  return merged;
}

// True when the union of `ranges` holds every byte of [seq, seq + len).
bool Covered(const std::map<uint64_t, uint32_t>& ranges, uint64_t seq, uint32_t len) {
  uint64_t reach = seq;  // [seq, reach) is covered
  for (const auto& [start, length] : ranges) {
    if (start > reach) {
      break;
    }
    reach = std::max(reach, start + length);
  }
  return reach >= seq + len;
}

TEST_F(TcpUnitTest, SackReportMatchesMergeRotateTruncateReference) {
  // Random out-of-order arrivals (overlapping, adjacent and repeated starts)
  // above a hole at [0, mss): every duplicate ACK must carry exactly the
  // reference's blocks, in its order. The receiver buffers the union of the
  // arrivals' bytes; the hint moves when an arrival adds bytes.
  Establish();
  Rng rng(2018);
  std::map<uint64_t, uint32_t> ranges;  // longest arrival per start
  uint64_t hint = 0;
  const uint64_t half = kDefaultMss / 2;
  for (int i = 0; i < 400; ++i) {
    uint64_t seq = half * static_cast<uint64_t>(rng.UniformInt(2, 120));
    uint32_t len = static_cast<uint32_t>(half * static_cast<uint64_t>(rng.UniformInt(1, 3)));
    if (!Covered(ranges, seq, len)) {
      hint = seq;  // a fully covered arrival is a duplicate and leaves the hint alone
    }
    uint32_t& longest = ranges[seq];
    longest = std::max(longest, len);
    InjectData(seq, len);
    const TcpSegmentPayload& ack = Tcp(capture_.sent.back());
    ASSERT_EQ(ack.ack_seq, 0u);
    std::vector<SackBlock> want = ReferenceSackReport(ranges, hint);
    ASSERT_EQ(ack.sacks.size(), want.size()) << "arrival " << i;
    for (size_t b = 0; b < want.size(); ++b) {
      ASSERT_EQ(ack.sacks[b].begin, want[b].begin) << "arrival " << i << " block " << b;
      ASSERT_EQ(ack.sacks[b].end, want[b].end) << "arrival " << i << " block " << b;
    }
  }
}

TEST_F(TcpUnitTest, OooSegmentExtendingABufferedStartAddsItsExtraBytes) {
  // [2, 2.5) then [2, 3) * mss: the second arrival's extra half segment is
  // buffered, SACKed, and readable once the hole below fills.
  Establish();
  const uint32_t half = kDefaultMss / 2;
  InjectData(2 * kDefaultMss, half);
  InjectData(2 * kDefaultMss, kDefaultMss);
  const TcpSegmentPayload& ack = Tcp(capture_.sent.back());
  ASSERT_EQ(ack.sacks.size(), 1u);
  EXPECT_EQ(ack.sacks[0].begin, 2 * kDefaultMss);
  EXPECT_EQ(ack.sacks[0].end, 3 * kDefaultMss);
  InjectData(0, 2 * kDefaultMss);
  EXPECT_EQ(Tcp(capture_.sent.back()).ack_seq, 3 * kDefaultMss);
  EXPECT_EQ(socket_->ReadableBytes(), 3 * kDefaultMss);
}

TEST_F(TcpUnitTest, OverlappingOooSegmentsCountEachBufferedByteOnce) {
  // [2, 3) then [2.5, 3.5) * mss buffer 1.5 segments, and the advertised
  // window shrinks by exactly that.
  Establish();
  const uint32_t half = kDefaultMss / 2;
  const uint64_t rcvbuf = TcpSocket::kRcvBufBytes;
  InjectData(2 * kDefaultMss, kDefaultMss);
  EXPECT_EQ(Tcp(capture_.sent.back()).receive_window, rcvbuf - kDefaultMss);
  InjectData(2 * kDefaultMss + half, kDefaultMss);
  const TcpSegmentPayload& ack = Tcp(capture_.sent.back());
  EXPECT_EQ(ack.receive_window, rcvbuf - 3 * half);
  ASSERT_EQ(ack.sacks.size(), 1u);
  EXPECT_EQ(ack.sacks[0].begin, 2 * kDefaultMss);
  EXPECT_EQ(ack.sacks[0].end, 3 * kDefaultMss + half);
}

TEST_F(TcpUnitTest, AdjacentOooSegmentsMergeIntoOneSackBlock) {
  Establish();
  InjectData(2 * kDefaultMss, kDefaultMss);
  InjectData(3 * kDefaultMss, kDefaultMss);
  const TcpSegmentPayload& ack = Tcp(capture_.sent.back());
  ASSERT_EQ(ack.sacks.size(), 1u);
  EXPECT_EQ(ack.sacks[0].begin, 2 * kDefaultMss);
  EXPECT_EQ(ack.sacks[0].end, 4 * kDefaultMss);
}

TEST_F(TcpUnitTest, HoleFillFlushesCumulativeAckWithoutSacks) {
  Establish();
  InjectData(kDefaultMss, kDefaultMss);  // OOO
  capture_.sent.clear();
  InjectData(0, kDefaultMss);  // fills the hole
  ASSERT_FALSE(capture_.sent.empty());
  const TcpSegmentPayload& ack = Tcp(capture_.sent.back());
  EXPECT_EQ(ack.ack_seq, 2 * kDefaultMss);
  EXPECT_TRUE(ack.sacks.empty());
}

TEST_F(TcpUnitTest, DescendingOooSegmentsGiveSameSackBlocksAsAscending) {
  // Segment 0 arrives, then three adjacent out-of-order segments and one
  // more beyond a second hole; the newest arrival is reported first.
  Establish();
  for (uint64_t k : {0, 5, 4, 3, 7}) {
    InjectData(k * kDefaultMss, kDefaultMss);
  }
  TcpSegmentPayload descending = Tcp(capture_.sent.back());
  NewSocket(1);
  capture_.sent.clear();
  Establish();
  for (uint64_t k : {0, 3, 4, 5, 7}) {
    InjectData(k * kDefaultMss, kDefaultMss);
  }
  TcpSegmentPayload ascending = Tcp(capture_.sent.back());

  EXPECT_EQ(descending.ack_seq, kDefaultMss);
  EXPECT_EQ(ascending.ack_seq, kDefaultMss);
  ASSERT_EQ(descending.sacks.size(), 2u);
  ASSERT_EQ(ascending.sacks.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(descending.sacks[i].begin, ascending.sacks[i].begin) << i;
    EXPECT_EQ(descending.sacks[i].end, ascending.sacks[i].end) << i;
  }
  EXPECT_EQ(descending.sacks[0].begin, 7 * kDefaultMss);
  EXPECT_EQ(descending.sacks[1].begin, 3 * kDefaultMss);
  EXPECT_EQ(descending.sacks[1].end, 6 * kDefaultMss);
  EXPECT_EQ(descending.receive_window, ascending.receive_window);
}

TEST_F(TcpUnitTest, DuplicateOooSegmentIsNotRecordedTwice) {
  socket_->telemetry().AttachSink(&rx_counter_);
  Establish();
  InjectData(2 * kDefaultMss, kDefaultMss);
  ASSERT_FALSE(capture_.sent.empty());
  TcpSegmentPayload first = Tcp(capture_.sent.back());
  EXPECT_EQ(rx_counter_.count, 1);
  InjectData(2 * kDefaultMss, kDefaultMss);  // exact duplicate, still out of order
  TcpSegmentPayload second = Tcp(capture_.sent.back());
  EXPECT_EQ(rx_counter_.count, 1);
  EXPECT_EQ(second.receive_window, first.receive_window);
  EXPECT_EQ(second.ack_seq, 0u);
  ASSERT_EQ(second.sacks.size(), 1u);
  EXPECT_EQ(second.sacks[0].begin, 2 * kDefaultMss);
  EXPECT_EQ(second.sacks[0].end, 3 * kDefaultMss);
  EXPECT_EQ(socket_->ReadableBytes(), 0u);
}

TEST_F(TcpUnitTest, PartialHoleFillLeavesHigherRangeBufferedAndSacked) {
  Establish();
  InjectData(0, kDefaultMss);
  InjectData(2 * kDefaultMss, kDefaultMss);
  InjectData(4 * kDefaultMss, kDefaultMss);
  InjectData(kDefaultMss, kDefaultMss);  // fills [mss, 2*mss) only
  const TcpSegmentPayload& partial = Tcp(capture_.sent.back());
  EXPECT_EQ(partial.ack_seq, 3 * kDefaultMss);
  ASSERT_EQ(partial.sacks.size(), 1u);
  EXPECT_EQ(partial.sacks[0].begin, 4 * kDefaultMss);
  EXPECT_EQ(partial.sacks[0].end, 5 * kDefaultMss);
  EXPECT_EQ(socket_->ReadableBytes(), 3 * kDefaultMss);

  InjectData(3 * kDefaultMss, kDefaultMss);  // the last hole
  const TcpSegmentPayload& full = Tcp(capture_.sent.back());
  EXPECT_EQ(full.ack_seq, 5 * kDefaultMss);
  EXPECT_TRUE(full.sacks.empty());
  EXPECT_EQ(socket_->ReadableBytes(), 5 * kDefaultMss);
}

TEST_F(TcpUnitTest, SackedSegmentsAreNotRetransmittedHoleIs) {
  Establish();
  socket_->Write(10 * kDefaultMss);
  capture_.sent.clear();
  // Peer SACKs segments 1..4 (seq mss..5*mss): segment 0 is the hole.
  InjectAck(0, {{kDefaultMss, 5 * kDefaultMss}});
  auto data = capture_.DataPackets();
  ASSERT_GE(data.size(), 1u);
  EXPECT_EQ(Tcp(*data[0]).seq, 0u);
  EXPECT_TRUE(Tcp(*data[0]).retransmit);
  // Nothing in the SACKed range was resent.
  for (const Packet* p : data) {
    bool in_sacked = Tcp(*p).seq >= kDefaultMss && Tcp(*p).seq < 5 * kDefaultMss;
    EXPECT_FALSE(in_sacked && Tcp(*p).retransmit);
  }
}

TEST_F(TcpUnitTest, EcnEchoUntilCwr) {
  TcpSocket::Config cfg;
  cfg.ecn = true;
  NewSocket(3, cfg);
  Establish();
  InjectData(0, kDefaultMss, /*ce_mark=*/true);
  InjectData(kDefaultMss, kDefaultMss);
  ASSERT_FALSE(capture_.sent.empty());
  EXPECT_TRUE(Tcp(capture_.sent.back()).ece);
  // Sender answers with CWR on its next data segment; the echo then stops.
  TcpSegmentPayload cwr_data;
  cwr_data.seq = 2 * kDefaultMss;
  cwr_data.payload_bytes = kDefaultMss;
  cwr_data.cwr = true;
  cwr_data.receive_window = 1 << 24;
  Inject(cwr_data, kIpTcpHeaderBytes + kDefaultMss);
  InjectData(3 * kDefaultMss, kDefaultMss);
  EXPECT_FALSE(Tcp(capture_.sent.back()).ece);
}

TEST_F(TcpUnitTest, RtoRetransmitsHeadAndCollapsesWindow) {
  Establish();
  socket_->Write(5 * kDefaultMss);
  size_t first_burst = capture_.DataPackets().size();
  ASSERT_EQ(first_burst, 5u);
  // No ACKs at all: the RTO (>= 1 s initial, handshake RTT ~0) must fire.
  Advance(TimeDelta::FromSecondsInt(2));
  auto data = capture_.DataPackets();
  ASSERT_GT(data.size(), first_burst);
  EXPECT_TRUE(Tcp(*data[first_burst]).retransmit);
  EXPECT_EQ(Tcp(*data[first_burst]).seq, 0u);
  EXPECT_EQ(socket_->GetTcpInfo().tcpi_snd_cwnd, 2u);  // collapsed (floor 2)
}

TEST_F(TcpUnitTest, CumulativeAckAdvancesAndFreesBuffer) {
  Establish();
  socket_->Write(4 * kDefaultMss);
  EXPECT_EQ(socket_->SndBufUsed(), 4 * kDefaultMss);
  InjectAck(3 * kDefaultMss);
  EXPECT_EQ(socket_->SndBufUsed(), 1 * kDefaultMss);
  EXPECT_EQ(socket_->GetTcpInfo().tcpi_bytes_acked, 3 * kDefaultMss);
}

TEST_F(TcpUnitTest, DuplicateDataIsReAckedNotReDelivered) {
  Establish();
  InjectData(0, kDefaultMss);
  InjectData(0, kDefaultMss);  // exact duplicate
  // Readable exactly one segment.
  EXPECT_EQ(socket_->ReadableBytes(), kDefaultMss);
  // The duplicate forced an immediate re-ACK.
  ASSERT_FALSE(capture_.sent.empty());
  EXPECT_EQ(Tcp(capture_.sent.back()).ack_seq, kDefaultMss);
}

TEST_F(TcpUnitTest, ZeroWindowBlocksUntilUpdate) {
  Establish();
  InjectAck(0, {}, /*rwnd=*/0);
  socket_->Write(4 * kDefaultMss);
  EXPECT_TRUE(capture_.DataPackets().empty());
  InjectAck(0, {}, /*rwnd=*/1 << 20);
  EXPECT_FALSE(capture_.DataPackets().empty());
}


// A congestion controller with a fixed window that logs, in call order, the
// time and in-flight figure of every call that carries one, and each RTO.
class RecordingCc : public CongestionControl {
 public:
  enum class Call { kSent, kAck, kLoss, kRto };
  struct Entry {
    Call call;
    SimTime at;
    uint64_t in_flight;
  };

  RecordingCc(double cwnd_segments, std::vector<Entry>* log)
      : cwnd_(cwnd_segments), log_(log) {}
  void OnAck(const AckSample& sample) override {
    log_->push_back({Call::kAck, sample.now, sample.bytes_in_flight});
  }
  void OnLoss(SimTime now, uint64_t bytes_in_flight, uint32_t) override {
    log_->push_back({Call::kLoss, now, bytes_in_flight});
  }
  void OnRetransmissionTimeout(SimTime now) override {
    log_->push_back({Call::kRto, now, 0});
  }
  void OnPacketSent(SimTime now, uint64_t bytes_in_flight) override {
    log_->push_back({Call::kSent, now, bytes_in_flight});
  }
  double CwndSegments() const override { return cwnd_; }
  uint32_t SsthreshSegments() const override { return 0; }

 private:
  double cwnd_;
  std::vector<Entry>* log_;
};

// The sender's SACK scoreboard as whole-window walks on every ACK: SACK
// marking, loss marking and the lowest-lost retransmission pick as they
// were before the socket kept runs, a scan cursor and a retransmission
// FIFO. The differential test replays the socket's sends and ACKs through
// it.
class ReferenceScoreboard {
 public:
  struct Seg {
    uint64_t seq = 0;
    uint32_t len = 0;
    bool retransmitted = false;
    bool sacked = false;
    bool lost = false;
    SimTime last_tx;
  };
  struct AckOutcome {
    bool entered_recovery = false;
    bool acked = false;
  };

  explicit ReferenceScoreboard(uint32_t mss) : mss_(mss) {}

  void OnNewData(uint64_t seq, uint32_t len, SimTime now) {
    Seg seg;
    seg.seq = seq;
    seg.len = len;
    seg.last_tx = now;
    segs_.push_back(seg);
    snd_nxt_ = seq + len;
  }

  // The lowest lost segment below the highest SACKed byte, if any.
  Seg* LowestLost() {
    if (lost_bytes_ == 0) {
      return nullptr;
    }
    for (Seg& seg : segs_) {
      if (seg.seq >= highest_sacked_) {
        break;
      }
      if (seg.lost) {
        return &seg;
      }
    }
    return nullptr;
  }

  // Picks and re-sends the lowest lost segment; returns its seq.
  std::optional<uint64_t> Retransmit(SimTime now) {
    Seg* seg = LowestLost();
    if (seg == nullptr) {
      return std::nullopt;
    }
    seg->retransmitted = true;
    seg->last_tx = now;
    seg->lost = false;
    lost_bytes_ -= seg->len;
    ++retransmits_;
    return seg->seq;
  }

  AckOutcome OnAck(uint64_t ack_seq, const std::vector<SackBlock>& sacks, SimTime now) {
    AckOutcome out;
    TimeDelta rtt_sample = TimeDelta::Zero();
    for (const SackBlock& block : sacks) {
      for (Seg& seg : segs_) {
        if (seg.seq < block.begin || seg.seq + seg.len > block.end || seg.sacked) {
          continue;
        }
        seg.sacked = true;
        sacked_bytes_ += seg.len;
        if (seg.lost) {
          seg.lost = false;
          lost_bytes_ -= seg.len;
        }
        if (!seg.retransmitted) {
          rtt_sample = now - seg.last_tx;
        }
      }
      highest_sacked_ = std::max(highest_sacked_, block.end);
    }
    uint64_t ack = std::min(ack_seq, snd_nxt_);
    if (ack > snd_una_) {
      out.acked = true;
      while (!segs_.empty() && segs_.front().seq + segs_.front().len <= ack) {
        const Seg& seg = segs_.front();
        if (seg.sacked) {
          sacked_bytes_ -= seg.len;
        } else {
          if (seg.lost) {
            lost_bytes_ -= seg.len;
          }
          if (!seg.retransmitted) {
            rtt_sample = now - seg.last_tx;
          }
        }
        segs_.pop_front();
      }
      snd_una_ = ack;
      highest_sacked_ = std::max(highest_sacked_, snd_una_);
    }
    out.entered_recovery = MarkLosses(now);
    if (out.acked) {
      if (rtt_sample > TimeDelta::Zero()) {
        UpdateRtt(rtt_sample);
      }
      if (in_recovery_ && snd_una_ >= recovery_end_) {
        in_recovery_ = false;
      }
    }
    return out;
  }

  void OnRto() {
    in_recovery_ = false;
    for (Seg& seg : segs_) {
      if (!seg.sacked && !seg.lost) {
        seg.lost = true;
        lost_bytes_ += seg.len;
      }
    }
    highest_sacked_ = std::max(highest_sacked_, snd_nxt_);
  }

  uint64_t InFlight() const {
    uint64_t total = snd_nxt_ - snd_una_;
    uint64_t gone = sacked_bytes_ + lost_bytes_;
    return gone >= total ? 0 : total - gone;
  }
  const std::deque<Seg>& segs() const { return segs_; }
  uint64_t snd_una() const { return snd_una_; }
  uint64_t retransmits() const { return retransmits_; }

 private:
  bool MarkLosses(SimTime now) {
    if (highest_sacked_ <= snd_una_) {
      return false;
    }
    bool newly_lost = false;
    uint64_t loss_edge = highest_sacked_ > 3ull * mss_ ? highest_sacked_ - 3ull * mss_ : 0;
    TimeDelta retx_grace = srtt_ + std::max(rttvar_ * 4.0, srtt_ * 0.5);
    for (Seg& seg : segs_) {
      if (seg.seq + seg.len > loss_edge) {
        break;
      }
      if (seg.sacked || seg.lost) {
        continue;
      }
      if (seg.retransmitted && now - seg.last_tx < retx_grace) {
        continue;
      }
      seg.lost = true;
      lost_bytes_ += seg.len;
      newly_lost = true;
    }
    if (newly_lost && !in_recovery_) {
      in_recovery_ = true;
      recovery_end_ = snd_nxt_;
      return true;
    }
    return false;
  }

  void UpdateRtt(TimeDelta sample) {
    if (srtt_.IsZero()) {
      srtt_ = sample;
      rttvar_ = sample / 2;
    } else {
      TimeDelta err = srtt_ > sample ? srtt_ - sample : sample - srtt_;
      rttvar_ = rttvar_ * 0.75 + err * 0.25;
      srtt_ = srtt_ * 0.875 + sample * 0.125;
    }
  }

  uint32_t mss_;
  std::deque<Seg> segs_;
  uint64_t snd_una_ = 0;
  uint64_t snd_nxt_ = 0;
  uint64_t sacked_bytes_ = 0;
  uint64_t lost_bytes_ = 0;
  uint64_t highest_sacked_ = 0;
  bool in_recovery_ = false;
  uint64_t recovery_end_ = 0;
  TimeDelta srtt_ = TimeDelta::Zero();
  TimeDelta rttvar_ = TimeDelta::Zero();
  uint64_t retransmits_ = 0;
};

class TcpScoreboardTest : public TcpUnitTest {
 protected:
  // Drives a fresh socket with `steps` random ACKs, clock steps and writes,
  // checking each retransmission and every in-flight figure the CC sees
  // against the reference.
  void RunDifferential(uint64_t seed, int steps) {
    calls_.clear();
    next_call_ = 0;
    next_packet_ = 0;
    NewSocket(seed);
    socket_->TestOnlySetCongestionControl(std::make_unique<RecordingCc>(40.0, &calls_));
    Establish();
    ReferenceScoreboard ref(kDefaultMss);
    Rng rng(seed);
    std::vector<SackBlock> previous;
    socket_->Write(1 << 20);
    Replay(ref, "initial write");
    for (int step = 0; step < steps && !HasFatalFailure(); ++step) {
      std::string where = "seed " + std::to_string(seed) + " step " + std::to_string(step);
      int64_t action = rng.UniformInt(0, 99);
      if (action < 60) {
        uint64_t ack_seq = RandomCumulativeAck(ref, rng);
        std::vector<SackBlock> sacks = RandomSackBlocks(ref, previous, rng);
        previous = sacks;
        InjectAck(ack_seq, sacks);
        ReferenceScoreboard::AckOutcome outcome = ref.OnAck(ack_seq, sacks, loop_.now());
        ExpectAckCalls(ref, outcome, where);
      } else if (action < 85) {
        Advance(TimeDelta::FromMillis(rng.UniformInt(1, 20)));  // mostly within the grace
      } else if (action < 97) {
        Advance(TimeDelta::FromMillis(rng.UniformInt(40, 300)));  // across the grace
      } else if (action < 99) {
        Advance(TimeDelta::FromSecondsInt(2));  // lets the RTO fire
      } else {
        socket_->Write(1 << 20);
      }
      Replay(ref, where);
      ASSERT_EQ(socket_->total_retransmits(), ref.retransmits()) << where;
    }
    EXPECT_GT(ref.retransmits(), 100u) << "seed " << seed;
  }

 private:
  static uint64_t SegEnd(const ReferenceScoreboard::Seg& s) { return s.seq + s.len; }

  // Mostly a duplicate ACK; sometimes a jump over the first few segments.
  static uint64_t RandomCumulativeAck(const ReferenceScoreboard& ref, Rng& rng) {
    const auto& segs = ref.segs();
    if (segs.empty() || rng.UniformInt(0, 9) < 8) {
      return ref.snd_una();
    }
    int64_t limit = std::min<int64_t>(static_cast<int64_t>(segs.size()), 12);
    return SegEnd(segs[static_cast<size_t>(rng.UniformInt(0, limit - 1))]);
  }

  // Up to four blocks: aligned on segment boundaries, misaligned, below
  // snd_una, or repeated from the previous ACK.
  static std::vector<SackBlock> RandomSackBlocks(const ReferenceScoreboard& ref,
                                                 const std::vector<SackBlock>& previous,
                                                 Rng& rng) {
    const auto& segs = ref.segs();
    std::vector<SackBlock> out;
    int64_t count = rng.UniformInt(0, 4);
    for (int64_t b = 0; b < count && !segs.empty(); ++b) {
      int64_t kind = rng.UniformInt(0, 9);
      if (kind < 2 && !previous.empty()) {
        out.push_back(previous[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(previous.size()) - 1))]);
        continue;
      }
      if (kind == 2) {
        uint64_t end = ref.snd_una() - std::min<uint64_t>(ref.snd_una(), kDefaultMss);
        out.push_back({end - std::min<uint64_t>(end, 3 * kDefaultMss), end});
        continue;
      }
      int64_t n = static_cast<int64_t>(segs.size());
      // Skip the first segment most of the time, so holes stay open.
      int64_t first = rng.UniformInt(std::min<int64_t>(1, n - 1), n - 1);
      int64_t last = std::min(n - 1, first + rng.UniformInt(0, 5));
      SackBlock block{segs[static_cast<size_t>(first)].seq,
                      SegEnd(segs[static_cast<size_t>(last)])};
      if (kind >= 8) {
        block.begin += static_cast<uint64_t>(rng.UniformInt(0, kDefaultMss - 1));
        block.end -= static_cast<uint64_t>(rng.UniformInt(0, kDefaultMss - 1));
        block.end = std::max(block.end, block.begin + 1);
      }
      out.push_back(block);
    }
    return out;
  }

  // The ACK's CC calls: OnLoss on entering recovery, OnAck when it acked data.
  void ExpectAckCalls(const ReferenceScoreboard& ref,
                      const ReferenceScoreboard::AckOutcome& outcome, const std::string& where) {
    if (outcome.entered_recovery) {
      ASSERT_LT(next_call_, calls_.size()) << where;
      ASSERT_EQ(calls_[next_call_].call, RecordingCc::Call::kLoss) << where;
      EXPECT_EQ(calls_[next_call_++].in_flight, ref.InFlight()) << where;
    }
    if (outcome.acked) {
      ASSERT_LT(next_call_, calls_.size()) << where;
      ASSERT_EQ(calls_[next_call_].call, RecordingCc::Call::kAck) << where;
      EXPECT_EQ(calls_[next_call_++].in_flight, ref.InFlight()) << where;
    }
  }

  // Applies the RTOs and sends logged since the last replay. Each send is a
  // retransmission the reference must pick, or new data sent while the
  // reference has nothing to retransmit.
  void Replay(ReferenceScoreboard& ref, const std::string& where) {
    auto data = capture_.DataPackets();
    for (; next_call_ < calls_.size(); ++next_call_) {
      const RecordingCc::Entry& call = calls_[next_call_];
      if (call.call == RecordingCc::Call::kRto) {
        ref.OnRto();
        continue;
      }
      ASSERT_EQ(call.call, RecordingCc::Call::kSent) << where;
      ASSERT_LT(next_packet_, data.size()) << where;
      const TcpSegmentPayload& seg = Tcp(*data[next_packet_++]);
      // The CC sees a retransmission back in flight, and new data before
      // snd_nxt moves past it.
      if (seg.retransmit) {
        std::optional<uint64_t> pick = ref.Retransmit(call.at);
        ASSERT_TRUE(pick.has_value()) << where << ": socket resent " << seg.seq;
        ASSERT_EQ(seg.seq, *pick) << where;
        ASSERT_EQ(call.in_flight, ref.InFlight()) << where;
      } else {
        ASSERT_EQ(ref.LowestLost(), nullptr)
            << where << ": new data at " << seg.seq << " while the reference would resend "
            << ref.LowestLost()->seq;
        ASSERT_EQ(call.in_flight, ref.InFlight()) << where;
        ref.OnNewData(seg.seq, seg.payload_bytes, call.at);
      }
    }
    ASSERT_EQ(next_packet_, data.size()) << where;
    capture_.sent.clear();
    next_packet_ = 0;
  }

  std::vector<RecordingCc::Entry> calls_;
  size_t next_call_ = 0;
  size_t next_packet_ = 0;
};

TEST_F(TcpScoreboardTest, RetransmissionsAndInFlightMatchWholeWindowReference) {
  // Seed 15 reaches, near step 4460, a retransmission whose grace expired
  // above the loss edge and then grew back over it as srtt rose.
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    RunDifferential(seed, 5000);
    if (HasFatalFailure()) {
      return;
    }
  }
}

}  // namespace
}  // namespace element
