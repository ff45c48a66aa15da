// Figure 8: ELEMENT's estimation accuracy under dynamic network conditions:
//   (a) bandwidth alternating between 10 and 50 Mbps every 20 s,
//   (b) three background flows joining, one every 20 s.
//
// Expected shape: accuracy holds in both; slightly better with background
// traffic than with hard bandwidth swings.

#include <cstdio>

#include "bench/harness.h"

using namespace element;

int main() {
  std::printf("=== Figure 8: estimation-error CDFs in dynamic networks ===\n\n");

  // (a) Dynamic bandwidth: 10 <-> 50 Mbps every 20 s.
  PathConfig dyn;
  dyn.steps = {{TimeDelta::FromSecondsInt(20), DataRate::Mbps(10)},
               {TimeDelta::FromSecondsInt(20), DataRate::Mbps(50)}};
  dyn.one_way_delay = TimeDelta::FromMillis(25);
  dyn.queue_limit_packets = 200;
  AccuracyRun dyn_run = RunAccuracyExperiment(401, dyn, 80.0);

  // (b) Background traffic: one new Cubic flow every 20 s (3 total).
  PathConfig bg;
  bg.rate = DataRate::Mbps(50);
  bg.one_way_delay = TimeDelta::FromMillis(25);
  bg.queue_limit_packets = 200;
  AccuracyRun bg_run = RunAccuracyExperiment(402, bg, 80.0, TimeDelta::FromMillis(10),
                                             /*background_flows=*/3);

  TablePrinter table({"scenario", "side", "err p50 (s)", "err p90 (s)", "err p99 (s)",
                      "accuracy"});
  AddAccuracyRows(&table, "(a) dynamic bandwidth", dyn_run);
  AddAccuracyRows(&table, "(b) background traffic", bg_run);
  std::printf("%s\n", table.Render().c_str());

  std::printf("--- full error CDFs ---\n");
  PrintErrorCdfRows(dyn_run, "dyn-bw sender", "dyn-bw receiver");
  PrintErrorCdfRows(bg_run, "bg sender", "bg receiver");

  bool shape_ok = dyn_run.sender.accuracy > 0.80 && bg_run.sender.accuracy > 0.80 &&
                  bg_run.sender.accuracy >= dyn_run.sender.accuracy - 0.10;
  std::printf("\nPaper shape check: accurate in both dynamic scenarios; background-traffic\n"
              "case at least as accurate as the bandwidth-swing case.\nSHAPE %s\n",
              shape_ok ? "OK" : "MISMATCH");
  return shape_ok ? 0 : 1;
}
