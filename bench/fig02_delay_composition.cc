// Figure 2: delay composition of a TCP Cubic flow under pfifo_fast.
// Setup (paper §2.1): 3 Cubic flows, 10 Mbps bottleneck, 25 ms one-way delay,
// Linux default queueing discipline and send-buffer auto-tuning.
//
// Expected shape: the sender's system delay dominates the total; network
// delay is second; receiver delay is small.

#include <cstdio>

#include "bench/harness.h"

using namespace element;

int main() {
  std::printf("=== Figure 2: delay composition of a TCP flow (pfifo_fast) ===\n");
  std::printf("Setup: 3 TCP Cubic flows, 10 Mbps, 25 ms one-way delay\n\n");

  ScenarioSpec spec;  // pfifo_fast, Cubic
  spec.rate_mbps = 10;
  spec.rtt_ms = 50;
  spec.queue_packets = 100;
  spec.num_flows = 3;
  spec.duration_s = 60.0;
  spec.seed = 42;
  std::vector<FlowResult> flows = LegacyFlows(spec);

  TablePrinter table({"component", "delay (ms)", "share"});
  // The paper plots one representative flow; we average across the three.
  const MeanDelays delays = AverageDelays(flows);
  const double snd = delays.sender_s;
  const double net = delays.network_s;
  const double rcv = delays.receiver_s;
  const double total = delays.total_s();
  table.AddRow({"Sender's system delay", TablePrinter::Fmt(snd * 1000, 1),
                TablePrinter::Fmt(100 * snd / total, 1) + "%"});
  table.AddRow({"Network delay", TablePrinter::Fmt(net * 1000, 1),
                TablePrinter::Fmt(100 * net / total, 1) + "%"});
  table.AddRow({"Receiver's system delay", TablePrinter::Fmt(rcv * 1000, 1),
                TablePrinter::Fmt(100 * rcv / total, 1) + "%"});
  table.AddRow({"Total", TablePrinter::Fmt(total * 1000, 1), "100%"});
  std::printf("%s\n", table.Render().c_str());

  std::printf("Per-flow goodput (Mbps):");
  for (const FlowResult& f : flows) {
    std::printf(" %.2f", f.goodput_mbps);
  }
  std::printf("\n\nPaper shape check: sender system delay dominates (paper: ~2.5 s total on a\n"
              "4 MB-autotuned stack; this testbed's smaller queue gives smaller absolute\n"
              "values with the same ordering sender >> network >> receiver).\n");
  bool ok = snd > net && net > rcv;
  std::printf("SHAPE %s: sender %.0f ms > network %.0f ms > receiver %.0f ms\n",
              ok ? "OK" : "MISMATCH", snd * 1000, net * 1000, rcv * 1000);
  return ok ? 0 : 1;
}
