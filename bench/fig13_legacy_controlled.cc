// Figure 13: ELEMENT with a legacy TCP application (iperf) over controlled
// networks. Grid: bandwidth {10, 50, 100} Mbps x RTT {10, 50, 100, 150} ms.
// Three Cubic flows run; one is replaced by Cubic+ELEMENT (via interposition).
//
// Expected shape: (a) the ELEMENT flow's relative delay drops by up to ~10x;
// (b) its throughput matches the plain run, and the two background flows'
// throughput is unchanged (fairness).

#include <cstdio>
#include <vector>

#include "bench/harness.h"

using namespace element;

int main() {
  std::printf("=== Figure 13: legacy iperf +/- ELEMENT over bandwidth x RTT grid ===\n");
  std::printf("Setup: 3 Cubic flows, flow 0 optionally interposed; 40 s per run\n\n");

  const double kMbps[] = {10, 50, 100};
  const int kRttMs[] = {10, 50, 100, 150};

  TablePrinter table({"bw/rtt", "cubic avg delay(s)", "elem delay(s)", "reduction",
                      "cubic avg tput", "elem tput", "bg tput before", "bg tput after"});
  double worst_reduction = 1e9;
  double best_reduction = 0;
  bool shape_ok = true;
  for (double mbps : kMbps) {
    for (int rtt : kRttMs) {
      ScenarioSpec spec;  // queue_packets 0: auto-sized to max(60, 2x BDP)
      spec.rate_mbps = mbps;
      spec.rtt_ms = rtt;
      spec.num_flows = 3;
      spec.duration_s = 40.0;
      spec.seed = 700 + static_cast<uint64_t>(mbps) + static_cast<uint64_t>(rtt);
      std::vector<FlowResult> plain = LegacyFlows(spec);
      spec.element_mode = "first";
      std::vector<FlowResult> with_em = LegacyFlows(spec);

      // The three plain Cubic flows are i.i.d.; a single run's flow 0 can be
      // well above or below fair share (Cubic converges slowly at high BDP),
      // so the baseline is the average plain flow.
      double plain_delay = 0;
      double plain_tput = 0;
      for (const FlowResult& f : plain) {
        plain_delay += f.relative_delay_s / plain.size();
        plain_tput += f.goodput_mbps / plain.size();
      }
      double bg_before = (plain[1].goodput_mbps + plain[2].goodput_mbps) / 2;
      double bg_after = (with_em[1].goodput_mbps + with_em[2].goodput_mbps) / 2;
      double reduction = plain_delay / std::max(with_em[0].relative_delay_s, 1e-4);
      worst_reduction = std::min(worst_reduction, reduction);
      best_reduction = std::max(best_reduction, reduction);

      char label[32];
      std::snprintf(label, sizeof(label), "%.0fMbps/%dms", mbps, rtt);
      table.AddRow({label, TablePrinter::Fmt(plain_delay, 3),
                    TablePrinter::Fmt(with_em[0].relative_delay_s, 3),
                    TablePrinter::Fmt(reduction, 1) + "x",
                    TablePrinter::Fmt(plain_tput, 2),
                    TablePrinter::Fmt(with_em[0].goodput_mbps, 2),
                    TablePrinter::Fmt(bg_before, 2), TablePrinter::Fmt(bg_after, 2)});

      if (with_em[0].relative_delay_s > plain_delay) {
        shape_ok = false;  // ELEMENT must not increase delay
      }
      if (with_em[0].goodput_mbps < plain_tput * 0.75) {
        shape_ok = false;  // throughput (fair share) maintained
      }
      if (bg_after < bg_before * 0.75) {
        shape_ok = false;  // fairness to background flows
      }
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("delay reduction across the grid: %.1fx (min) to %.1fx (max)\n", worst_reduction,
              best_reduction);
  if (best_reduction < 3.0) {
    shape_ok = false;  // the paper reports up to ~10x; demand at least a few x
  }
  std::printf("Paper shape check: latency cut significantly (paper: up to 10x) with\n"
              "throughput and background-flow fairness maintained.\nSHAPE %s\n",
              shape_ok ? "OK" : "MISMATCH");
  return shape_ok ? 0 : 1;
}
