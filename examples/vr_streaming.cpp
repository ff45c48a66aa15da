// vr_streaming: the paper's Section 5.2 demo — 360-degree VR streaming over
// TCP, with and without ELEMENT's latency-aware adaptation. Frames must
// arrive within 200 ms (100 ms VR-sickness threshold + base latency) or the
// user gets sick.
//
//   ./build/examples/vr_streaming [link_mbps]

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/apps/vr_app.h"
#include "src/tcpsim/testbed.h"

using namespace element;

namespace {

void RunAndReport(const char* label, uint64_t seed, double mbps, bool with_element) {
  PathConfig path;
  path.rate = DataRate::Mbps(mbps);
  path.one_way_delay = TimeDelta::FromMillis(10);
  path.queue_limit_packets = 80;
  Testbed bed(seed, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  std::unique_ptr<ElementSocket> em;
  if (with_element) {
    ElementSocket::Options opt;
    em = std::make_unique<ElementSocket>(&bed.loop(), flow.sender, opt);
  }
  VrServer server(&bed.loop(), flow.sender, em.get());
  VrClient client(&bed.loop(), flow.receiver, &server);
  server.Start();
  client.Start();
  bed.loop().RunUntil(SimTime::FromNanos(30'000'000'000LL));

  int dropped = 0;
  for (const VrFrameRecord& f : server.frames()) {
    dropped += f.dropped;
  }
  std::printf("%s\n", label);
  std::printf("  frames delivered        : %lu (%d skipped by the server)\n",
              static_cast<unsigned long>(client.frames_received()), dropped);
  std::printf("  frame delay p50 / p95   : %.0f / %.0f ms\n",
              client.frame_delays().Quantile(0.5) * 1000,
              client.frame_delays().Quantile(0.95) * 1000);
  std::printf("  200 ms deadline misses  : %.1f%%  %s\n", client.DeadlineMissFraction() * 100,
              client.DeadlineMissFraction() < 0.05 ? "(comfortable)" : "(VR sickness!)");
  std::printf("  head-control msgs at srv: %lu\n\n",
              static_cast<unsigned long>(server.control_messages_received()));
}

}  // namespace

int main(int argc, char** argv) {
  double mbps = argc > 1 ? std::atof(argv[1]) : 50.0;
  std::printf("vr_streaming: 60 fps 360-degree video over a %.0f Mbps path\n", mbps);
  std::printf("Top resolution level needs 57.6 Mbps — someone has to adapt.\n\n");
  RunAndReport("TCP Cubic alone (blindly streams the top level):", 5001, mbps, false);
  RunAndReport("TCP Cubic + ELEMENT (adapts on the measured sender-side delay):", 5002, mbps,
               true);
  return 0;
}
