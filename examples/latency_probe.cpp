// latency_probe: the "Table 1 in miniature" demo. Runs a bulk TCP flow over
// an emulated path while probing it with the classic TCP diagnosis tools
// (tcpping/paping/hping3/echoping) and with ELEMENT, then shows what each
// tool can and cannot see.
//
//   ./build/examples/latency_probe [bandwidth_mbps] [owd_ms]

#include <cstdio>
#include <cstdlib>

#include "src/apps/iperf_app.h"
#include "src/element/byte_sink.h"
#include "src/element/element_socket.h"
#include "src/element/interposer.h"
#include "src/tcpsim/testbed.h"
#include "src/tools/probe_tools.h"
#include "src/trace/ground_truth.h"

using namespace element;

int main(int argc, char** argv) {
  double mbps = argc > 1 ? std::atof(argv[1]) : 10.0;
  int owd_ms = argc > 2 ? std::atoi(argv[2]) : 25;

  std::printf("latency_probe: who can see where the delay lives?\n");
  std::printf("Path: %.0f Mbps, %d ms one-way delay; one bulk Cubic flow saturates it.\n\n",
              mbps, owd_ms);

  PathConfig path;
  path.rate = DataRate::Mbps(mbps);
  path.one_way_delay = TimeDelta::FromMillis(owd_ms);
  path.queue_limit_packets = 100;
  Testbed bed(2024, path);

  // The bulk flow, measured by ELEMENT (diagnosis only, no minimization).
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  GroundTruthTracer tracer;
  flow.sender->telemetry().AttachSink(&tracer);
  flow.receiver->telemetry().AttachSink(&tracer);
  ElementSocket::Options opt;
  opt.enable_latency_minimization = false;
  ElementSocket em(&bed.loop(), flow.sender, opt);
  ElementSink sink(&em);
  IperfApp iperf(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  iperf.Start();
  reader.Start();

  // The classic tools.
  SynProbeTool tcpping(&bed.loop(), &bed.path(), SynProbeTool::TcpPing());
  tcpping.Start();
  Testbed::Flow echo_flow = bed.CreateFlow(TcpSocket::Config{});
  EchoPing echoping(&bed.loop(), echo_flow.receiver, echo_flow.sender);
  echoping.Start();

  bed.loop().RunUntil(SimTime::FromNanos(30'000'000'000LL));

  std::printf("ground truth (kernel tracepoints):\n");
  std::printf("  sender system delay : %7.1f ms   <- where the data actually waits\n",
              tracer.sender_delay().mean() * 1000);
  std::printf("  network delay       : %7.1f ms\n", tracer.network_delay().mean() * 1000);
  std::printf("  receiver system delay:%7.1f ms\n\n", tracer.receiver_delay().mean() * 1000);

  std::printf("what each tool reports:\n");
  std::printf("  tcpping (SYN probe)  : RTT %.1f ms — blind to the %.0f ms in the send buffer\n",
              tcpping.rtt_samples().mean() * 1000, tracer.sender_delay().mean() * 1000);
  std::printf("  echoping (HTTP timer): %.1f ms per transfer — one number, undecomposed\n",
              echoping.transfer_times().mean() * 1000);
  std::printf("  ELEMENT (user level) : sender %.1f ms / receiver %.1f ms — decomposed, no root\n",
              em.sender_estimator().delay_samples().mean() * 1000,
              em.recv_buffer_delay_s() * 1000);
  return 0;
}
