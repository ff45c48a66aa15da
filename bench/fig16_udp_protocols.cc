// Figure 16: ELEMENT vs UDP-based low-latency protocols (Sprout-like,
// Verus-like), each running one "low-latency" flow against two background
// TCP Cubic flows.
//
// Expected shape: Sprout/Verus achieve very low delay but poor throughput
// fairness (well under fair share); ELEMENT's delay is slightly higher but
// comparable, and it keeps TCP's fair throughput share.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/measured_flow.h"
#include "src/tcpsim/testbed.h"
#include "src/udpproto/low_latency_protocols.h"

#include "bench/harness.h"

using namespace element;

namespace {

struct Row {
  std::string name;
  double low_latency_delay_s = 0.0;
  double low_latency_tput = 0.0;
  double bg1_delay_s = 0.0;
  double bg1_tput = 0.0;
  double bg2_delay_s = 0.0;
  double bg2_tput = 0.0;
};

Row RunOne(uint64_t seed, const std::string& protocol) {
  PathConfig path;
  path.rate = DataRate::Mbps(9);
  path.one_way_delay = TimeDelta::FromMillis(25);
  path.queue_limit_packets = 100;
  Testbed bed(seed, path);

  // Two background Cubic flows with ground-truth end-to-end delay.
  std::vector<std::unique_ptr<MeasuredFlow>> bgs;
  for (int i = 0; i < 2; ++i) {
    Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
    bgs.push_back(std::make_unique<MeasuredFlow>(&bed.loop(), flow.sender, flow.receiver,
                                                 MeasuredFlow::Options{}));
    bgs.back()->Start();
  }

  std::unique_ptr<SproutLikeFlow> sprout;
  std::unique_ptr<VerusLikeFlow> verus;
  std::unique_ptr<MeasuredFlow> em;
  if (protocol == "Sprout") {
    sprout = std::make_unique<SproutLikeFlow>(&bed.loop(), &bed.path());
    sprout->Start();
  } else if (protocol == "Verus") {
    verus = std::make_unique<VerusLikeFlow>(&bed.loop(), &bed.path());
    verus->Start();
  } else {
    Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
    MeasuredFlow::Options options;
    options.element = MeasuredFlow::Element::kInterposed;
    em = std::make_unique<MeasuredFlow>(&bed.loop(), flow.sender, flow.receiver, options);
    em->Start();
  }

  const double kDuration = 60.0;
  bed.loop().RunUntil(SimTime::FromNanos(static_cast<int64_t>(kDuration * 1e9)));

  Row row;
  row.name = protocol;
  auto tput = [&](uint64_t bytes) {
    return RateOver(static_cast<int64_t>(bytes), TimeDelta::FromSeconds(kDuration)).ToMbps();
  };
  if (sprout) {
    row.low_latency_delay_s = sprout->one_way_delays().mean();
    row.low_latency_tput = tput(sprout->delivered_bytes());
  } else if (verus) {
    row.low_latency_delay_s = verus->one_way_delays().mean();
    row.low_latency_tput = tput(verus->delivered_bytes());
  } else {
    row.low_latency_delay_s = em->tracer().end_to_end_delay().mean();
    row.low_latency_tput = em->GoodputMbps(kDuration);
  }
  row.bg1_delay_s = bgs[0]->tracer().end_to_end_delay().mean();
  row.bg1_tput = bgs[0]->GoodputMbps(kDuration);
  row.bg2_delay_s = bgs[1]->tracer().end_to_end_delay().mean();
  row.bg2_tput = bgs[1]->GoodputMbps(kDuration);
  return row;
}

}  // namespace

int main() {
  std::printf("=== Figure 16: UDP low-latency protocols vs ELEMENT ===\n");
  std::printf("Setup: 1 low-latency flow + 2 background Cubic flows, 9 Mbps / 50 ms RTT, 60 s\n\n");

  std::vector<Row> rows;
  rows.push_back(RunOne(1001, "Sprout"));
  rows.push_back(RunOne(1002, "Verus"));
  rows.push_back(RunOne(1003, "ELEMENT"));

  TablePrinter delay_table({"protocol", "bg flow 1 delay(s)", "bg flow 2 delay(s)",
                            "low-latency flow delay(s)"});
  TablePrinter tput_table({"protocol", "bg flow 1 (Mbps)", "bg flow 2 (Mbps)",
                           "low-latency flow (Mbps)"});
  for (const Row& r : rows) {
    delay_table.AddRow({r.name, TablePrinter::Fmt(r.bg1_delay_s, 3),
                        TablePrinter::Fmt(r.bg2_delay_s, 3),
                        TablePrinter::Fmt(r.low_latency_delay_s, 3)});
    tput_table.AddRow({r.name, TablePrinter::Fmt(r.bg1_tput, 2),
                       TablePrinter::Fmt(r.bg2_tput, 2),
                       TablePrinter::Fmt(r.low_latency_tput, 2)});
  }
  std::printf("--- (a) delay ---\n%s\n", delay_table.Render().c_str());
  std::printf("--- (b) throughput ---\n%s\n", tput_table.Render().c_str());

  const Row& sprout = rows[0];
  const Row& verus = rows[1];
  const Row& elem = rows[2];
  double fair_share = 9.0 / 3.0;
  bool shape_ok = true;
  // Sprout/Verus: very low delay but clearly below fair share.
  for (const Row* r : {&sprout, &verus}) {
    if (r->low_latency_delay_s > r->bg1_delay_s * 0.5) {
      shape_ok = false;
    }
    if (r->low_latency_tput > fair_share * 0.85) {
      shape_ok = false;
    }
  }
  // ELEMENT: delay far below its background flows (slightly above the UDP
  // protocols is fine), throughput near fair share.
  if (elem.low_latency_delay_s > elem.bg1_delay_s * 0.7) {
    shape_ok = false;
  }
  if (elem.low_latency_tput < fair_share * 0.7) {
    shape_ok = false;
  }
  if (elem.low_latency_tput < sprout.low_latency_tput ||
      elem.low_latency_tput < verus.low_latency_tput) {
    shape_ok = false;
  }
  std::printf("Paper shape check: Sprout/Verus very low delay, poor fairness; ELEMENT\n"
              "comparable (slightly higher) delay with a fair TCP share.\nSHAPE %s\n",
              shape_ok ? "OK" : "MISMATCH");
  return shape_ok ? 0 : 1;
}
