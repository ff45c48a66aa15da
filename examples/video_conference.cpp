// video_conference: the paper's §3.3 "TCP-based video conferencing" use case.
// Two participants exchange real-time video streams over one path (one TCP
// connection per direction). Each sender runs ELEMENT to monitor its send
// latency and adapts its bitrate so the two directions stay in sync even when
// one direction is congested by a competing bulk flow.
//
//   ./build/examples/video_conference

#include <cstdio>
#include <memory>
#include <vector>

#include "src/apps/measured_flow.h"
#include "src/element/element_socket.h"
#include "src/tcpsim/testbed.h"

using namespace element;

namespace {

// One direction of the call: a 30 fps frame source with a bitrate ladder,
// adapting on ELEMENT's measured send-buffer delay.
class CallLeg {
 public:
  CallLeg(EventLoop* loop, TcpSocket* sender, TcpSocket* receiver, const char* name)
      : loop_(loop),
        name_(name),
        receiver_(receiver),
        em_options_(),
        em_(loop, sender, em_options_),
        frame_timer_(loop, TimeDelta::FromMillis(33), [this] { OnFrame(); }) {
    receiver_->SetReadableCallback([this] { Drain(); });
    em_.SetReadyToSendCallback([this] { Pump(); });
  }

  void Start() { frame_timer_.Start(); }

  double mean_send_delay_ms() const { return send_delay_.mean() * 1000; }
  int bitrate_level() const { return level_; }
  double delivered_mbps(double seconds) const {
    return RateOver(static_cast<int64_t>(receiver_->app_bytes_read()),
                    TimeDelta::FromSeconds(seconds))
        .ToMbps();
  }

 private:
  void OnFrame() {
    if (!em_.socket()->established()) {
      return;
    }
    // Bitrate ladder: 0.5 / 1 / 2 / 4 Mbps at 30 fps.
    static constexpr size_t kFrameBytes[] = {2100, 4200, 8300, 16700};
    double delay_ms = em_.send_buffer_delay_s() * 1000;
    send_delay_.Add(em_.send_buffer_delay_s());
    if (delay_ms > 60.0) {
      level_ = std::max(level_ - 1, 0);
    } else if (delay_ms < 20.0 && ++good_ > 90) {
      level_ = std::min(level_ + 1, 3);
      good_ = 0;
    }
    pending_ += kFrameBytes[static_cast<size_t>(level_)];
    Pump();
  }

  void Pump() {
    while (pending_ > 0) {
      RetInfo info = em_.Send(pending_);
      if (info.size <= 0) {
        break;
      }
      pending_ -= static_cast<size_t>(info.size);
    }
  }

  void Drain() {
    while (receiver_->Read(64 * 1024) > 0) {
    }
  }

  EventLoop* loop_;
  const char* name_;
  TcpSocket* receiver_;
  ElementSocket::Options em_options_;
  ElementSocket em_;
  PeriodicTimer frame_timer_;
  size_t pending_ = 0;
  int level_ = 3;
  int good_ = 0;
  RunningStats send_delay_;
};

}  // namespace

int main() {
  std::printf("video_conference: bidirectional TCP call with ELEMENT-driven sync\n\n");

  PathConfig path;
  path.rate = DataRate::Mbps(10);
  path.reverse_rate = DataRate::Mbps(10);
  path.one_way_delay = TimeDelta::FromMillis(20);
  path.queue_limit_packets = 100;
  Testbed bed(99, path);

  // Alice -> Bob (forward pipe) and Bob -> Alice (reverse pipe).
  Testbed::Flow a2b = bed.CreateFlow(TcpSocket::Config{}, /*sender_at_client=*/true);
  Testbed::Flow b2a = bed.CreateFlow(TcpSocket::Config{}, /*sender_at_client=*/false);
  CallLeg alice_to_bob(&bed.loop(), a2b.sender, a2b.receiver, "alice->bob");
  CallLeg bob_to_alice(&bed.loop(), b2a.sender, b2a.receiver, "bob->alice");
  alice_to_bob.Start();
  bob_to_alice.Start();

  // At t=20s a bulk download congests the alice->bob direction.
  std::unique_ptr<MeasuredFlow> bulk;
  Timer join(&bed.loop(), [&] {
    Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{}, true);
    bulk = std::make_unique<MeasuredFlow>(&bed.loop(), flow.sender, flow.receiver,
                                          MeasuredFlow::Options{});
    bulk->Start();
    std::printf("[t=20s] bulk Cubic download joins the alice->bob direction\n");
  });
  join.Restart(SimTime::FromNanos(20'000'000'000LL));

  for (int t = 10; t <= 60; t += 10) {
    bed.loop().RunUntil(SimTime::FromNanos(static_cast<int64_t>(t) * 1'000'000'000LL));
    std::printf("[t=%2ds] a->b: level %d, send delay %5.1f ms | b->a: level %d, send delay %5.1f ms\n",
                t, alice_to_bob.bitrate_level(), alice_to_bob.mean_send_delay_ms(),
                bob_to_alice.bitrate_level(), bob_to_alice.mean_send_delay_ms());
  }

  std::printf("\ndelivered rates over the call: a->b %.2f Mbps, b->a %.2f Mbps\n",
              alice_to_bob.delivered_mbps(60), bob_to_alice.delivered_mbps(60));
  std::printf("ELEMENT kept both legs' send delays visible so the congested leg could\n"
              "downshift instead of desynchronizing the call.\n");
  return 0;
}
