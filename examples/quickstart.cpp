// Quickstart: attach ELEMENT to a bulk TCP Cubic flow over an emulated
// 10 Mbps / 25 ms path, and print the decomposed end-to-end latency the way
// the paper's Section 2 does — first without, then with, ELEMENT's latency
// minimization.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart

#include <cstdio>

#include "src/apps/iperf_app.h"
#include "src/element/byte_sink.h"
#include "src/element/estimation_error.h"
#include "src/element/interposer.h"
#include "src/tcpsim/testbed.h"
#include "src/trace/flow_meter.h"
#include "src/trace/ground_truth.h"

using namespace element;

namespace {

struct RunResult {
  GroundTruthTracer::Composition composition;
  double throughput_mbps = 0.0;
  double est_sender_delay_s = 0.0;
  double est_accuracy = 0.0;
};

RunResult RunFlow(bool with_element) {
  PathConfig path;
  path.rate = DataRate::Mbps(10);
  path.one_way_delay = TimeDelta::FromMillis(25);
  path.queue_limit_packets = 100;
  Testbed bed(/*seed=*/42, path);

  TcpSocket::Config socket_config;
  socket_config.congestion_control = "cubic";
  Testbed::Flow flow = bed.CreateFlow(socket_config);

  // Hand-wired rather than MeasuredFlow: the tour shows the raw ByteSink/InterposedSink swap.
  GroundTruthTracer tracer;
  flow.sender->telemetry().AttachSink(&tracer);
  flow.receiver->telemetry().AttachSink(&tracer);

  std::unique_ptr<ByteSink> sink;
  if (with_element) {
    sink = std::make_unique<InterposedSink>(&bed.loop(), flow.sender);
  } else {
    sink = std::make_unique<RawTcpSink>(flow.sender);
  }
  IperfApp iperf(&bed.loop(), sink.get());
  SinkApp reader(flow.receiver);
  iperf.Start();
  reader.Start();

  FlowMeter meter(&bed.loop(), flow.receiver);
  meter.Start();

  bed.loop().RunUntil(SimTime::FromNanos(30'000'000'000LL));  // 30 s

  RunResult result;
  result.composition = tracer.MeanComposition();
  result.throughput_mbps = meter.MeanGoodput().ToMbps();
  if (with_element) {
    auto* interposed = static_cast<InterposedSink*>(sink.get());
    const TimeSeries& est = interposed->element().sender_estimator().delay_series();
    result.est_sender_delay_s = est.Values().mean();
    AccuracyResult acc = ScoreEstimates(est, tracer.sender_delay_series());
    result.est_accuracy = acc.accuracy;
  }
  return result;
}

void PrintRun(const char* label, const RunResult& r) {
  std::printf("%s\n", label);
  std::printf("  sender system delay : %8.3f s\n", r.composition.sender_s);
  std::printf("  network delay       : %8.3f s\n", r.composition.network_s);
  std::printf("  receiver system delay:%8.3f s\n", r.composition.receiver_s);
  std::printf("  total one-way delay : %8.3f s\n", r.composition.total_s);
  std::printf("  goodput             : %8.3f Mbps\n", r.throughput_mbps);
  if (r.est_accuracy > 0) {
    std::printf("  ELEMENT sender-delay estimate: %.3f s (accuracy %.1f%%)\n",
                r.est_sender_delay_s, r.est_accuracy * 100.0);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("ELEMENT quickstart — where does slow data go to wait?\n");
  std::printf("Path: 10 Mbps, 25 ms one-way delay, pfifo_fast bottleneck\n\n");
  RunResult plain = RunFlow(/*with_element=*/false);
  PrintRun("TCP Cubic alone:", plain);
  RunResult with_em = RunFlow(/*with_element=*/true);
  PrintRun("TCP Cubic + ELEMENT (LD_PRELOAD-style interposition):", with_em);

  double speedup = plain.composition.total_s / (with_em.composition.total_s + 1e-9);
  std::printf("End-to-end latency reduced %.1fx; throughput %.1f -> %.1f Mbps\n", speedup,
              plain.throughput_mbps, with_em.throughput_mbps);
  return 0;
}
