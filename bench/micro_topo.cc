// Topology-layer microbenchmark: the numbers behind BENCH_topo.json and the
// topo-smoke CI floor.
//
// Two workloads, each reported as a rate:
//   route_lookup   — raw Router forwarding: 1k installed flows across 4
//                    egress ports, 2M packets delivered to a null sink (the
//                    per-packet table cost: bounds check + load + virtual
//                    dispatch).
//   dumbbell_1k    — a full contention run: 1024 concurrent Cubic flows
//                    through one FQ-CoDel dumbbell bottleneck for 2 simulated
//                    seconds; reports events/sec and sim-seconds per
//                    wall-second, demonstrating >= 1k-flow scale. Also
//                    reports its construction plus teardown (the same run
//                    for 1 simulated ns), the fastest of several tries, in
//                    ms; recorded only, with no floor.
//
// Usage:
//   micro_topo                      print a JSON metrics object
//   micro_topo --floor <file.json>  also enforce min_topo_* floors from the
//                                   file (exit 1 on a regression below a floor
//                                   or a floor key missing from the file)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/common/json.h"
#include "src/topo/contention.h"
#include "src/topo/router.h"

#include "bench/micro_floor.h"

namespace element {
namespace {

constexpr int kRouteFlows = 1024;
constexpr int kRoutePackets = 2'000'000;
constexpr int kDumbbellFlows = 1024;
constexpr double kDumbbellSimSeconds = 2.0;
constexpr double kShortestSimSeconds = 1e-9;
constexpr int kSetupTries = 7;

class NullSink : public PacketSink {
 public:
  void Deliver(Packet pkt) override { bytes += pkt.size_bytes; }
  uint64_t bytes = 0;
};

double BenchRouteLookup() {
  Router router("bench");
  NullSink sinks[4];
  int ports[4];
  for (int i = 0; i < 4; ++i) {
    ports[i] = router.AddPort(&sinks[i]);
  }
  for (int f = 0; f < kRouteFlows; ++f) {
    router.AddRoute(static_cast<uint64_t>(f), ports[f % 4]);
  }
  Packet pkt;
  pkt.size_bytes = 1500;
  double secs = Timed([&] {
    for (int i = 0; i < kRoutePackets; ++i) {
      pkt.flow_id = static_cast<uint64_t>(i % kRouteFlows);
      router.Deliver(pkt);
    }
  });
  if (router.stats().forwarded_packets != static_cast<uint64_t>(kRoutePackets)) {
    std::fprintf(stderr, "route_lookup dropped packets\n");
    std::exit(1);
  }
  return kRoutePackets / secs;
}

struct DumbbellResult {
  double events_per_sec = 0.0;
  double sim_seconds_per_sec = 0.0;
  uint64_t forwarded_packets = 0;
  uint64_t processed_events = 0;
};

ContentionConfig Dumbbell1kConfig(double duration_s) {
  ContentionConfig cfg;
  cfg.topo.shape = TopologyShape::kDumbbell;
  cfg.topo.host_pairs = 32;  // 32 flows per pair
  cfg.topo.qdisc = QdiscType::kFqCoDel;
  cfg.topo.queue_limit_packets = 500;
  cfg.topo.bottleneck_rate = DataRate::Mbps(200);
  cfg.flows = kDumbbellFlows;
  cfg.duration_s = duration_s;
  cfg.warmup_s = 0.5;
  cfg.seed = 7;
  return cfg;
}

DumbbellResult BenchDumbbell1k() {
  const ContentionConfig cfg = Dumbbell1kConfig(kDumbbellSimSeconds);
  ContentionResult result;
  double secs = Timed([&] { result = RunContentionExperiment(cfg); });
  if (result.unroutable_packets != 0) {
    std::fprintf(stderr, "dumbbell_1k misrouted packets\n");
    std::exit(1);
  }
  DumbbellResult r;
  r.events_per_sec = static_cast<double>(result.processed_events) / secs;
  r.sim_seconds_per_sec = kDumbbellSimSeconds / secs;
  r.forwarded_packets = result.forwarded_packets;
  r.processed_events = result.processed_events;
  return r;
}

// Construction plus teardown of the 1024-flow dumbbell, in ms: the fastest
// of kSetupTries runs of 1 simulated ns.
double BenchDumbbell1kSetupMs() {
  const ContentionConfig cfg = Dumbbell1kConfig(kShortestSimSeconds);
  double fastest = Timed([&] { RunContentionExperiment(cfg); });
  for (int i = 1; i < kSetupTries; ++i) {
    fastest = std::min(fastest, Timed([&] { RunContentionExperiment(cfg); }));
  }
  return fastest * 1e3;
}

std::vector<FloorCheck> Run() {
  json::Value out = json::Value::Object();
  double lookup = BenchRouteLookup();
  DumbbellResult dumbbell = BenchDumbbell1k();
  double setup_ms = BenchDumbbell1kSetupMs();
  out.Set("topo_route_lookup_packets_per_sec", json::Value::Number(lookup));
  out.Set("topo_dumbbell_1k_flows", json::Value::Int(kDumbbellFlows));
  out.Set("topo_dumbbell_1k_events_per_sec", json::Value::Number(dumbbell.events_per_sec));
  out.Set("topo_dumbbell_1k_sim_seconds_per_sec",
          json::Value::Number(dumbbell.sim_seconds_per_sec));
  out.Set("topo_dumbbell_1k_processed_events",
          json::Value::Int(static_cast<int64_t>(dumbbell.processed_events)));
  out.Set("topo_dumbbell_1k_forwarded_packets",
          json::Value::Int(static_cast<int64_t>(dumbbell.forwarded_packets)));
  out.Set("topo_dumbbell_1k_setup_ms", json::Value::Number(setup_ms));
  std::printf("%s\n", out.Dump(2).c_str());

  return {{"min_topo_route_lookup_packets_per_sec", lookup},
          {"min_topo_dumbbell_1k_events_per_sec", dumbbell.events_per_sec}};
}

}  // namespace
}  // namespace element

int main(int argc, char** argv) {
  return element::MicroBenchMain("micro_topo", argc, argv, element::Run);
}
