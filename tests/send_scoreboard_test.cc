// Model test for SendScoreboard: seeded random steps drive a bare scoreboard
// (no socket, loop or congestion controller) and the whole-window
// ReferenceScoreboard side by side, comparing what the sender reads after
// every step and forcing the scoreboard's full audit.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/tcpsim/send_scoreboard.h"
#include "tests/reference_scoreboard.h"

namespace element {
namespace {

class ScoreboardModelHarness {
 public:
  // Segments in flight beyond which no new data is sent. A small window
  // lets retransmissions after an RTO reach the top 3 MSS, where they can
  // expire above the loss edge and wait in the side list.
  static constexpr size_t kMaxWindowSegments = 48;

  explicit ScoreboardModelHarness(uint64_t seed) : rng_(seed), ref_(kDefaultMss) {}

  void RunSteps(int steps) {
    for (int step = 0; step < steps; ++step) {
      where_ = "step " + std::to_string(step);
      int64_t kind = rng_.UniformInt(0, 99);
      if (kind < 22) {
        NewData();
      } else if (kind < 42) {
        Sack();
      } else if (kind < 52) {
        CumulativeAck();
      } else if (kind < 67) {
        LossScan();
      } else if (kind < 82) {
        Retransmit();
      } else if (kind < 94) {
        // Mostly inside the grace, sometimes across it.
        now_ = now_ + TimeDelta::FromMillis(kind < 90 ? rng_.UniformInt(1, 20)
                                                      : rng_.UniformInt(40, 300));
      } else if (kind < 96) {
        Rto();
      } else {
        LossScan();
      }
      Compare();
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
  }

  uint64_t retransmits() const { return ref_.retransmits(); }
  uint64_t rtos() const { return rtos_; }
  uint64_t scans_with_loss() const { return scans_with_loss_; }
  uint64_t steps_with_side_entries() const { return steps_with_side_entries_; }

 private:
  // One to four segments, the last sometimes short as a Nagle tail is.
  void NewData() {
    int64_t n = rng_.UniformInt(1, 4);
    for (int64_t i = 0; i < n && ref_.segs().size() < kMaxWindowSegments; ++i) {
      uint32_t len = rng_.UniformInt(0, 9) == 0
                         ? static_cast<uint32_t>(rng_.UniformInt(1, kDefaultMss))
                         : kDefaultMss;
      uint64_t seq = board_.nxt();
      board_.Append(seq, len, now_, /*app_limited=*/false);
      ref_.OnNewData(seq, len, now_);
    }
  }

  void Sack() {
    std::vector<SackBlock> blocks = RandomSackBlocks(ref_, previous_, rng_, kDefaultMss);
    previous_ = blocks;
    SackList list;
    for (const SackBlock& b : blocks) {
      list.push_back(b);
    }
    uint64_t sacked_before = ref_.sacked_bytes();
    SendScoreboard::DeliverySample sample;
    TimeDelta ref_rtt = TimeDelta::Zero();
    bool progress = board_.ApplySack(list, now_, &sample);
    ref_.ApplySack(blocks, now_, &ref_rtt);
    EXPECT_EQ(progress, ref_.sacked_bytes() != sacked_before) << where_;
    EXPECT_EQ(sample.rtt, ref_rtt) << where_;
  }

  // A jump over the first few segments, now and then into a segment's middle.
  void CumulativeAck() {
    uint64_t ack = RandomCumulativeAck(ref_, rng_);
    if (ack > ref_.snd_una() && rng_.UniformInt(0, 19) == 0) {
      ack -= static_cast<uint64_t>(rng_.UniformInt(1, static_cast<int64_t>(
                                                          ack - ref_.snd_una())));
      ack = std::max(ack, ref_.snd_una() + 1);
    }
    TimeDelta ref_rtt = TimeDelta::Zero();
    if (!ref_.PopTo(ack, now_, &ref_rtt)) {
      return;
    }
    SendScoreboard::DeliverySample sample;
    board_.PopTo(ack, now_, &sample);
    EXPECT_EQ(sample.rtt, ref_rtt) << where_;
  }

  // The socket's grace lies between one and a few RTTs; any positive grace
  // is valid.
  void LossScan() {
    TimeDelta grace = TimeDelta::FromMillis(rng_.UniformInt(20, 200));
    bool lost = board_.DetectLosses(now_, grace);
    EXPECT_EQ(lost, ref_.MarkLosses(now_, grace)) << where_;
    scans_with_loss_ += lost ? 1 : 0;
  }

  void Retransmit() {
    std::optional<SeqRange> taken = board_.TakeLost(now_);
    const ReferenceScoreboard::Seg* pick = ref_.LowestLost();
    std::optional<SeqRange> expected;
    if (pick != nullptr) {
      expected = SeqRange{pick->seq, SegEnd(*pick)};
      ref_.Retransmit(now_);
    }
    ASSERT_EQ(taken.has_value(), expected.has_value()) << where_;
    if (taken) {
      EXPECT_EQ(taken->begin, expected->begin) << where_;
      EXPECT_EQ(taken->end, expected->end) << where_;
    }
  }

  // The RTO fires at least its minimum after the last transmission, so no
  // retransmission shares its instant.
  void Rto() {
    now_ = now_ + TimeDelta::FromMillis(rng_.UniformInt(200, 1000));
    board_.MarkAllLost();
    ref_.OnRto();
    ++rtos_;
  }

  void Compare() {
    ASSERT_EQ(board_.una(), ref_.snd_una()) << where_;
    ASSERT_EQ(board_.nxt(), ref_.snd_nxt()) << where_;
    ASSERT_EQ(board_.BytesInFlight(), ref_.InFlight()) << where_;
    ASSERT_EQ(SendScoreboardTestPeer::sacked_bytes(board_), ref_.sacked_bytes()) << where_;
    ASSERT_EQ(SendScoreboardTestPeer::lost_bytes(board_), ref_.lost_bytes()) << where_;
    std::optional<SeqRange> next = SendScoreboardTestPeer::NextLost(board_);
    ReferenceScoreboard::Seg* pick = ref_.LowestLost();
    ASSERT_EQ(next.has_value(), pick != nullptr) << where_;
    if (next) {
      ASSERT_EQ(next->begin, pick->seq) << where_;
    }
    SendScoreboardTestPeer::AuditAll(board_);
    steps_with_side_entries_ += SendScoreboardTestPeer::side_entries(board_) > 0 ? 1 : 0;
  }

  Rng rng_;
  SimTime now_ = SimTime::Zero();
  SendScoreboard board_;
  ReferenceScoreboard ref_;
  std::vector<SackBlock> previous_;
  std::string where_;
  uint64_t rtos_ = 0;
  uint64_t scans_with_loss_ = 0;
  uint64_t steps_with_side_entries_ = 0;
};

TEST(SendScoreboardModelTest, RandomStepsMatchWholeWindowReference) {
  uint64_t retransmits = 0;
  uint64_t rtos = 0;
  uint64_t scans_with_loss = 0;
  uint64_t steps_with_side_entries = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ScoreboardModelHarness harness(seed);
    harness.RunSteps(2000);
    if (HasFailure()) {
      return;
    }
    retransmits += harness.retransmits();
    rtos += harness.rtos();
    scans_with_loss += harness.scans_with_loss();
    steps_with_side_entries += harness.steps_with_side_entries();
  }
  EXPECT_GT(retransmits, 2000u);
  EXPECT_GT(rtos, 400u);
  EXPECT_GT(scans_with_loss, 500u);
  EXPECT_GT(steps_with_side_entries, 800u);
}

}  // namespace
}  // namespace element
