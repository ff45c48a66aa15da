// Tests for the VR streaming application (Section 5.2): frame accounting,
// the head-control channel, and the deadline-miss improvement from
// ELEMENT-driven adaptation.

#include <gtest/gtest.h>

#include <memory>

#include "src/apps/vr_app.h"
#include "src/tcpsim/testbed.h"

namespace element {
namespace {

SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

struct VrRun {
  std::unique_ptr<Testbed> bed;
  std::unique_ptr<ElementSocket> em;
  std::unique_ptr<VrServer> server;
  std::unique_ptr<VrClient> client;
  Testbed::Flow flow;
};

VrRun MakeVrRun(uint64_t seed, bool with_element, DataRate rate) {
  VrRun run;
  PathConfig path;
  path.rate = rate;
  path.one_way_delay = TimeDelta::FromMillis(10);
  path.queue_limit_packets = 150;
  run.bed = std::make_unique<Testbed>(seed, path);
  // VR server streams from the client side of the path (the bottleneck).
  run.flow = run.bed->CreateFlow(TcpSocket::Config{});
  if (with_element) {
    ElementSocket::Options opt;
    run.em = std::make_unique<ElementSocket>(&run.bed->loop(), run.flow.sender, opt);
  }
  run.server = std::make_unique<VrServer>(&run.bed->loop(), run.flow.sender, run.em.get());
  run.client =
      std::make_unique<VrClient>(&run.bed->loop(), run.flow.receiver, run.server.get());
  run.server->Start();
  run.client->Start();
  return run;
}

TEST(VrAppTest, DeliversFramesInOrder) {
  // Light load: the top level's 57.6 Mbps on a 200 Mbps link, so everything
  // should arrive quickly.
  VrRun run = MakeVrRun(1, false, DataRate::Mbps(200));
  run.bed->loop().RunUntil(Sec(10.0));
  EXPECT_GT(run.client->frames_received(), 500u);
  // Completion times are monotone in frame id.
  SimTime prev = SimTime::Zero();
  for (const VrFrameRecord& f : run.server->frames()) {
    if (f.completed) {
      EXPECT_GE(f.completed_at, prev);
      prev = f.completed_at;
    }
  }
}

TEST(VrAppTest, HeadControlMessagesFlowBack) {
  VrRun run = MakeVrRun(2, false, DataRate::Mbps(200));
  run.bed->loop().RunUntil(Sec(10.0));
  // 50 ms cadence for 10 s ~ 200 messages.
  EXPECT_GT(run.server->control_messages_received(), 100u);
}

TEST(VrAppTest, OverloadedPlainTcpMissesDeadlines) {
  // Top level 120 KB * 60 fps = 57.6 Mbps > 50 Mbps link.
  VrRun run = MakeVrRun(3, false, DataRate::Mbps(50));
  run.bed->loop().RunUntil(Sec(20.0));
  EXPECT_GT(run.client->DeadlineMissFraction(), 0.3);
}

TEST(VrAppTest, ElementAdaptationMeetsDeadlines) {
  VrRun run = MakeVrRun(4, true, DataRate::Mbps(50));
  run.bed->loop().RunUntil(Sec(20.0));
  EXPECT_LT(run.client->DeadlineMissFraction(), 0.05);
  // It still streams a meaningful number of frames.
  EXPECT_GT(run.client->frames_received(), 400u);
}

TEST(VrAppTest, AdaptationDownshiftsUnderCongestion) {
  VrRun run = MakeVrRun(5, true, DataRate::Mbps(30));  // tighter link
  run.bed->loop().RunUntil(Sec(20.0));
  // From the top of the ladder (58 Mbps) it must have come down.
  EXPECT_LT(run.server->current_level(), 3);
  int dropped = 0;
  for (const VrFrameRecord& f : run.server->frames()) {
    dropped += f.dropped;
  }
  EXPECT_GT(dropped, 0);
}

TEST(VrAppTest, FrameDelayDistributionTighterWithElement) {
  VrRun plain = MakeVrRun(6, false, DataRate::Mbps(50));
  plain.bed->loop().RunUntil(Sec(20.0));
  VrRun em = MakeVrRun(6, true, DataRate::Mbps(50));
  em.bed->loop().RunUntil(Sec(20.0));
  EXPECT_LT(em.client->frame_delays().Quantile(0.9),
            plain.client->frame_delays().Quantile(0.9) * 0.5);
}

}  // namespace
}  // namespace element
