// Ablation benches for the design choices DESIGN.md calls out:
//   (1) tcp_info polling period — the paper's accuracy/overhead trade-off
//       (§3.1, §4.3: "If we decrease this measurement interval we can obtain
//       higher accuracy").
//   (2) Algorithm 3's D_thr — the latency target vs throughput trade-off.
//   (3) Algorithm 3's Delta exponent — adjustment smoothness (the FAST-TCP
//       comparison in §4.4).
//   (4) HyStart in Cubic — slow-start overshoot and its retransmission burst.
//   (5) Ratcheting send-buffer auto-tuning — the mechanism behind the
//       sender-side bufferbloat of Figure 2.

#include <cstdio>
#include <memory>

#include "src/apps/iperf_app.h"
#include "src/apps/measured_flow.h"
#include "src/element/interposer.h"
#include "src/tcpsim/testbed.h"
#include "src/trace/ground_truth.h"

#include "bench/harness.h"

using namespace element;

namespace {

void AblateTrackerPeriod() {
  std::printf("--- (1) tcp_info polling period: accuracy vs overhead ---\n");
  PathConfig path;  // 10 Mbps / 50 ms RTT, the Figure 6 setting
  TablePrinter table({"period (ms)", "sender accuracy", "median |err| (s)", "polls/s"});
  for (int period_ms : {1, 5, 10, 50, 100}) {
    AccuracyRun run = RunAccuracyExperiment(3100 + static_cast<uint64_t>(period_ms), path, 20.0,
                                            TimeDelta::FromMillis(period_ms));
    table.AddRow({TablePrinter::Fmt(period_ms, 0),
                  TablePrinter::Fmt(run.sender.accuracy * 100, 1) + "%",
                  TablePrinter::Fmt(run.sender.median_abs_error_s, 4),
                  TablePrinter::Fmt(1000.0 / period_ms, 0)});
  }
  std::printf("%s\n", table.Render().c_str());
}

struct MinRun {
  double delay_s;
  double goodput;
};

// Hand-wired: MeasuredFlow takes no MinimizerParams, and adding them would be a new knob.
MinRun RunMinimized(uint64_t seed, const MinimizerParams& params) {
  PathConfig path;
  Testbed bed(seed, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  GroundTruthTracer::Config tcfg;
  tcfg.record_from = SimTime::FromNanos(5'000'000'000LL);
  GroundTruthTracer tracer(tcfg);
  flow.sender->telemetry().AttachSink(&tracer);
  flow.receiver->telemetry().AttachSink(&tracer);
  InterposedSink sink(&bed.loop(), flow.sender, false, params);
  IperfApp app(&bed.loop(), &sink);
  SinkApp reader(flow.receiver);
  app.Start();
  reader.Start();
  bed.loop().RunUntil(SimTime::FromNanos(30'000'000'000LL));
  MinRun r;
  r.delay_s = tracer.sender_delay().mean();
  r.goodput = RateOver(static_cast<int64_t>(flow.receiver->app_bytes_read()),
                       TimeDelta::FromSecondsInt(30))
                  .ToMbps();
  return r;
}

void AblateDthr() {
  std::printf("--- (2) Algorithm 3 D_thr: latency target vs throughput ---\n");
  TablePrinter table({"D_thr (ms)", "sender delay (s)", "goodput (Mbps)"});
  for (int dthr_ms : {10, 25, 50, 100}) {
    MinimizerParams params;
    params.delay_threshold = TimeDelta::FromMillis(dthr_ms);
    MinRun r = RunMinimized(3200 + static_cast<uint64_t>(dthr_ms), params);
    table.AddRow({TablePrinter::Fmt(dthr_ms, 0), TablePrinter::Fmt(r.delay_s, 3),
                  TablePrinter::Fmt(r.goodput, 2)});
  }
  std::printf("%s\n", table.Render().c_str());
}

void AblateDelta() {
  std::printf("--- (3) Algorithm 3 Delta exponent: adjustment aggressiveness ---\n");
  TablePrinter table({"Delta", "sender delay (s)", "goodput (Mbps)"});
  for (double delta : {0.1, 0.25, 0.5, 1.0}) {
    MinimizerParams params;
    params.delta = delta;
    MinRun r = RunMinimized(3300 + static_cast<uint64_t>(delta * 100), params);
    table.AddRow({TablePrinter::Fmt(delta, 2), TablePrinter::Fmt(r.delay_s, 3),
                  TablePrinter::Fmt(r.goodput, 2)});
  }
  std::printf("%s\n", table.Render().c_str());
}

void AblateHyStart() {
  std::printf("--- (4) Cubic HyStart: slow-start overshoot ---\n");
  TablePrinter table({"variant", "retransmits", "sender delay (s)", "goodput (Mbps)"});
  for (const char* cc : {"cubic", "cubic-nohystart"}) {
    ScenarioSpec spec;  // 10 Mbps / 50 ms RTT with PathConfig's 100-packet queue
    spec.cc = cc;
    spec.queue_packets = 100;
    spec.duration_s = 30.0;
    spec.seed = 3400;
    std::vector<FlowResult> flows = LegacyFlows(spec);
    table.AddRow({cc, TablePrinter::Fmt(static_cast<double>(flows[0].retransmits), 0),
                  TablePrinter::Fmt(flows[0].sender_delay_s, 3),
                  TablePrinter::Fmt(flows[0].goodput_mbps, 2)});
  }
  std::printf("%s\n", table.Render().c_str());
}

void AblateAutotune() {
  std::printf("--- (5) send-buffer auto-tuning ratchet: the bufferbloat mechanism ---\n");
  TablePrinter table({"sndbuf policy", "sender delay (s)", "goodput (Mbps)", "final sndbuf"});
  for (bool autotune : {true, false}) {
    PathConfig path;
    Testbed bed(3500, path);
    Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
    if (!autotune) {
      flow.sender->SetSndBuf(120000);  // ~2x BDP fixed
    }
    MeasuredFlow::Options options;
    options.tracer.record_from = SimTime::FromNanos(3'000'000'000LL);
    MeasuredFlow measured(&bed.loop(), flow.sender, flow.receiver, options);
    measured.Start();
    bed.loop().RunUntil(SimTime::FromNanos(30'000'000'000LL));
    table.AddRow({autotune ? "Linux ratchet (2x cwnd)" : "fixed 120 KB",
                  TablePrinter::Fmt(measured.tracer().sender_delay().mean(), 3),
                  TablePrinter::Fmt(measured.GoodputMbps(30.0), 2),
                  TablePrinter::Fmt(static_cast<double>(flow.sender->sndbuf()) / 1024, 0) +
                      " KB"});
  }
  std::printf("%s\n", table.Render().c_str());
}

}  // namespace

int main() {
  std::printf("=== Ablations of DESIGN.md's called-out design choices ===\n\n");
  AblateTrackerPeriod();
  AblateDthr();
  AblateDelta();
  AblateHyStart();
  AblateAutotune();
  return 0;
}
