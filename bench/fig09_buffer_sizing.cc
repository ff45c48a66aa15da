// Figure 9: static send-buffer sizes vs Linux auto-tuning vs ELEMENT.
// EC2-like path. The paper's point: no static size gets both high throughput
// and low delay — small buffers cut delay but throttle throughput, large
// buffers fill the pipe but bloat delay; ELEMENT achieves both at once.

#include <cstdio>

#include "src/apps/measured_flow.h"
#include "src/tcpsim/testbed.h"

#include "bench/harness.h"

using namespace element;

namespace {

FlowResult RunOne(uint64_t seed, size_t fixed_sndbuf, bool use_element) {
  PathConfig path;  // EC2-like: fast path with a ~1 MB bandwidth-delay product
  path.rate = DataRate::Mbps(200);
  path.one_way_delay = TimeDelta::FromMillis(20);
  path.queue_limit_packets = 400;  // ~0.6x BDP: shallow datacenter-style buffer
  Testbed bed(seed, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  if (fixed_sndbuf > 0) {
    flow.sender->SetSndBuf(fixed_sndbuf);
  }
  MeasuredFlow::Options options;
  options.element = use_element ? MeasuredFlow::Element::kInterposed : MeasuredFlow::Element::kOff;
  options.tracer.record_from = SimTime::FromNanos(3'000'000'000LL);
  MeasuredFlow measured(&bed.loop(), flow.sender, flow.receiver, options);
  measured.Start();
  bed.loop().RunUntil(SimTime::FromNanos(30'000'000'000LL));
  return measured.Result("cubic", 30.0, path.one_way_delay.ToSeconds());
}

}  // namespace

int main() {
  std::printf("=== Figure 9: throughput & delay vs send-buffer strategy ===\n");
  std::printf("Setup: single Cubic flow, 200 Mbps / 40 ms RTT (EC2-like), 30 s\n\n");

  struct Case {
    const char* name;
    size_t sndbuf;
    bool element;
  };
  const Case cases[] = {
      {"0.25MB", 256 * 1024, false}, {"0.5MB", 512 * 1024, false}, {"1MB", 1024 * 1024, false},
      {"2MB", 2 * 1024 * 1024, false}, {"Auto-tuning", 0, false}, {"ELEMENT", 0, true},
  };

  TablePrinter table({"buffer strategy", "throughput (Mbps)", "relative delay (s)"});
  FlowResult results[6];
  int i = 0;
  for (const Case& c : cases) {
    results[i] = RunOne(500 + static_cast<uint64_t>(i), c.sndbuf, c.element);
    table.AddRow({c.name, TablePrinter::Fmt(results[i].goodput_mbps, 2),
                  TablePrinter::Fmt(results[i].relative_delay_s, 3)});
    ++i;
  }
  std::printf("%s\n", table.Render().c_str());

  const FlowResult& small = results[0];
  const FlowResult& big = results[3];
  const FlowResult& autot = results[4];
  const FlowResult& em = results[5];
  bool shape_ok = true;
  // Static trade-off: the small buffer loses throughput vs the big one; the
  // big buffer has much larger delay than the small one.
  if (small.goodput_mbps >= big.goodput_mbps * 0.98 &&
      small.relative_delay_s >= big.relative_delay_s) {
    shape_ok = false;
  }
  if (big.relative_delay_s < small.relative_delay_s) {
    shape_ok = false;
  }
  // ELEMENT: throughput within 10% of the best, delay near the smallest.
  double best_tput = std::max({small.goodput_mbps, big.goodput_mbps, autot.goodput_mbps});
  if (em.goodput_mbps < best_tput * 0.90) {
    shape_ok = false;
  }
  if (em.relative_delay_s > autot.relative_delay_s * 0.6) {
    shape_ok = false;
  }
  std::printf("Paper shape check: static sizes trade throughput against delay;\n"
              "ELEMENT gets high throughput AND low delay simultaneously.\nSHAPE %s\n",
              shape_ok ? "OK" : "MISMATCH");
  return shape_ok ? 0 : 1;
}
