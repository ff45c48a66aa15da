// Declarative scenario specs for the fleet runner.
//
// A ScenarioSpec fully describes one deterministic simulation: the path
// (named production profile or parameterized wired link), qdisc, congestion
// control, application workload, ELEMENT interposition mode, and seed.
// Suites live in scenarios/*.json rather than C++: a suite file carries
// shared defaults, explicit scenario entries, and grid sweeps that expand
// into the cartesian product of their axes.
//
// Expansion is pure and deterministic: the same suite text always yields the
// same ordered vector of specs, which is what lets `element_fleet` promise
// byte-identical aggregates regardless of --jobs.

#ifndef ELEMENT_SRC_RUNNER_SCENARIO_H_
#define ELEMENT_SRC_RUNNER_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/tcpsim/testbed.h"
#include "src/topo/topology.h"

namespace element {

struct ScenarioSpec {
  std::string name;  // display label; auto-derived for sweep-expanded specs

  // Workload: "legacy" = N iperf flows with ground-truth delay decomposition
  // (the Fig. 2/3/13/14 experiments); "accuracy" = one ELEMENT-instrumented
  // Cubic flow scored against ground truth (the Fig. 6/7/8 experiments).
  std::string app = "legacy";

  // Path: "wired" uses the rate/rtt/queue knobs below; "lan", "cable",
  // "cable_up", "wifi", "lte", "lte_up" use the named production profiles
  // (rate_mbps and rtt_ms are ignored for profiles; a positive queue_packets,
  // qdisc and ecn still apply).
  std::string profile = "wired";
  double rate_mbps = 10.0;
  double rtt_ms = 50.0;
  // 0 => auto-size to max(60, 2 * BDP) packets, the Fig. 7 wired formula.
  int queue_packets = 0;
  bool ecn = false;

  std::string qdisc = "pfifo_fast";  // pfifo_fast | codel | fq_codel | pie | red
  std::string cc = "cubic";          // MakeCongestionControl() name

  // Multi-flow topology: "none" keeps the single-path Testbed; "dumbbell" and
  // "parking_lot" route the flows through a src/topo Network instead, with
  // one end-to-end host pair per foreground flow. With a topology,
  // rate/rtt/queue describe the bottleneck hop(s) and `profile` must stay
  // "wired" (production profiles are single-path).
  std::string topology = "none";  // none | dumbbell | parking_lot
  int hops = 1;                   // parking_lot: bottleneck hop count
  int cross_iperf = 0;  // per hop: long-lived competing flows
  int cross_onoff = 0;  // per hop: on-off Pareto web-like flows

  // Legacy app and topology runs: parallel iperf flows. The accuracy app runs
  // exactly one.
  int num_flows = 1;
  // Legacy app and topology runs only. "off" = plain TCP. "first": on the
  // single path, flow 0 through the ELEMENT interposer; on a topology, flow 0
  // gets a scored ElementSocket pair with minimization off. "wireless" =
  // interposer in LTE/WiFi mode (Algorithm 3), single path only.
  std::string element_mode = "off";

  double duration_s = 30.0;
  // Legacy app and topology runs: excluded from the delay decomposition (and
  // from a topology flow 0's scoring). The accuracy app ignores it.
  double warmup_s = 3.0;

  uint64_t seed = 1;

  // Stable identifier used in result rows: "<name>#s<seed>".
  std::string Id() const;

  // Resolves the path description into the simulator's PathConfig.
  PathConfig BuildPath() const;

  // Resolves the topology knobs into a src/topo spec (topology != "none").
  // The rtt_ms budget is split 10% across the access links and 90% across
  // the bottleneck hops so BaseRtt() matches the requested RTT.
  TopologySpec BuildTopology() const;

  // Empty string when the spec is well-formed, else a description of the
  // first problem (unknown qdisc/cc/app/profile, non-positive duration, ...).
  std::string Validate() const;
};

struct ScenarioSuite {
  std::string name = "suite";
  std::vector<ScenarioSpec> scenarios;  // already expanded, in order

  // Most scenarios a sweep may bring a suite to, counting the scenarios
  // before it; a sweep past it is refused before anything is reserved.
  // Explicit scenarios need no bound: each is an object in the file.
  static constexpr uint64_t kMaxScenarios = 1'000'000;

  // Parses a suite document; any other top-level key is an error:
  //   { "suite": "...", "defaults": {spec fields},
  //     "scenarios": [ {spec fields}, ... ],
  //     "sweeps": [ { spec fields..., "profile": [...], "topology": [...],
  //                   "rate_mbps": [...], "rtt_ms": [...], "qdisc": [...],
  //                   "cc": [...], "num_flows": [...], "cross_iperf": [...],
  //                   "cross_onoff": [...], "seed": {"base": N, "count": M >= 1} }, ... ] }
  // Every entry of "scenarios" and "sweeps" must be an object.
  // Explicit scenarios come first, then sweep expansions in file order. A sweep
  // crosses its axes in the order listed, seeds innermost; an empty axis keeps
  // the base value, and an axis with several values adds a name segment.
  static bool ParseJson(const std::string& text, ScenarioSuite* out, std::string* error);
  static bool LoadFile(const std::string& path, ScenarioSuite* out, std::string* error);

  // Adds `offset` to every scenario seed (the --seed flag).
  void OffsetSeeds(uint64_t offset);
};

}  // namespace element

#endif  // ELEMENT_SRC_RUNNER_SCENARIO_H_
