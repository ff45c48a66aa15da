// Table 1: ELEMENT vs existing TCP-based delay measurement tools, against
// kernel-profiler ground truth, while a bulk Cubic flow bloats the sender's
// buffer.
//
// Expected shape: tcpping/paping/hping3 report only the path RTT; echoping
// reports one aggregate transfer time; ELEMENT alone decomposes sender-side
// and receiver-side system delays, closely matching ground truth.

#include <cstdio>

#include "src/apps/measured_flow.h"
#include "src/tcpsim/testbed.h"
#include "src/tools/probe_tools.h"

#include "bench/harness.h"

using namespace element;

int main() {
  std::printf("=== Table 1: ELEMENT vs TCP-based delay measurement tools (seconds) ===\n");
  std::printf("Setup: bulk TCP Cubic flow + concurrent probes, 10 Mbps / 25 ms OWD, 60 s\n\n");

  PathConfig path;
  path.rate = DataRate::Mbps(10);
  path.one_way_delay = TimeDelta::FromMillis(25);
  path.queue_limit_packets = 100;
  Testbed bed(11, path);

  // Bulk flow with ground truth + ELEMENT estimators (minimization off).
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  MeasuredFlow::Options options;
  options.element = MeasuredFlow::Element::kMeasured;
  MeasuredFlow measured(&bed.loop(), flow.sender, flow.receiver, options);
  measured.Start();

  // Probe tools share the same path.
  SynProbeTool tcpping(&bed.loop(), &bed.path(), SynProbeTool::TcpPing());
  SynProbeTool paping(&bed.loop(), &bed.path(), SynProbeTool::Paping());
  SynProbeTool hping3(&bed.loop(), &bed.path(), SynProbeTool::Hping3());
  tcpping.Start();
  paping.Start();
  hping3.Start();

  // echoping downloads a document across the same bottleneck direction.
  Testbed::Flow echo_flow = bed.CreateFlow(TcpSocket::Config{});
  EchoPing echoping(&bed.loop(), echo_flow.receiver, echo_flow.sender);
  echoping.Start();

  bed.loop().RunUntil(SimTime::FromNanos(60'000'000'000LL));

  const GroundTruthTracer& tracer = measured.tracer();
  ElementSocket& em_snd = measured.element_sender();
  ElementSocket& em_rcv = measured.element_receiver();
  double gt_snd = tracer.sender_delay().mean();
  double gt_snd_sd = tracer.sender_delay_series().Values().Stdev();
  double gt_net = tracer.network_delay().mean();
  double gt_rcv = tracer.receiver_delay().mean();
  double gt_rcv_sd = tracer.receiver_delay_series().Values().Stdev();
  SampleSet em_snd_delay = em_snd.sender_estimator().delay_series().Values();
  SampleSet em_rcv_delay = em_rcv.receiver_estimator().delay_series().Values();
  double em_snd_d = em_snd_delay.mean();
  double em_snd_sd = em_snd_delay.Stdev();
  double em_rcv_d = em_rcv_delay.mean();
  double em_rcv_sd = em_rcv_delay.Stdev();
  double em_net = em_snd.socket()->smoothed_rtt().ToSeconds() / 2.0;

  auto fmt_sd = [](double v, double sd) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f (%.3f)", v, sd);
    return std::string(buf);
  };

  TablePrinter table({"tool", "sender system delay (stdev)", "avg network delay (stdev)",
                      "receiver system delay (stdev)"});
  table.AddRow({"Ground truth", fmt_sd(gt_snd, gt_snd_sd), TablePrinter::Fmt(gt_net, 3),
                fmt_sd(gt_rcv, gt_rcv_sd)});
  table.AddRow({"ELEMENT", fmt_sd(em_snd_d, em_snd_sd), TablePrinter::Fmt(em_net, 3),
                fmt_sd(em_rcv_d, em_rcv_sd)});
  table.AddRow({"tcpping", "x",
                fmt_sd(tcpping.rtt_samples().mean() / 2.0, tcpping.rtt_samples().Stdev() / 2.0),
                "x"});
  table.AddRow({"paping", "x",
                fmt_sd(paping.rtt_samples().mean() / 2.0, paping.rtt_samples().Stdev() / 2.0),
                "x"});
  table.AddRow({"hping3", "x",
                fmt_sd(hping3.rtt_samples().mean() / 2.0, hping3.rtt_samples().Stdev() / 2.0),
                "x"});
  table.AddRow({"echoping (total transfer time)",
                fmt_sd(echoping.transfer_times().mean(), echoping.transfer_times().Stdev()), "-",
                "-"});
  std::printf("%s\n", table.Render().c_str());

  bool shape_ok = true;
  // Probe tools are blind to the sender's bufferbloat.
  if (tcpping.rtt_samples().mean() > gt_snd) {
    shape_ok = false;
  }
  // ELEMENT tracks the ground-truth sender delay within 15%.
  if (std::abs(em_snd_d - gt_snd) > 0.15 * gt_snd) {
    shape_ok = false;
  }
  std::printf("Paper shape check: only ELEMENT exposes the dominant sender-side delay\n"
              "(probes see ~RTT; echoping sees one aggregate number).\n");
  std::printf("SHAPE %s\n", shape_ok ? "OK" : "MISMATCH");
  return shape_ok ? 0 : 1;
}
