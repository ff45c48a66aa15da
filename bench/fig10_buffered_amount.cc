// Figure 10: estimated amount of buffered (written-but-unacked) data over
// time for a plain Cubic flow vs Cubic + ELEMENT on a cloud-like path.
// Expected shape: plain Cubic keeps an excessively large buffered amount;
// ELEMENT keeps it minimal without ever emptying the buffer (no starvation).

#include <cstdio>

#include "src/apps/measured_flow.h"
#include "src/tcpsim/testbed.h"

#include "bench/harness.h"

using namespace element;

namespace {

TimeSeries RunOne(uint64_t seed, bool use_element, double* goodput_out) {
  PathConfig path;  // Chameleon-cloud-like
  path.rate = DataRate::Mbps(50);
  path.one_way_delay = TimeDelta::FromMillis(15);
  path.queue_limit_packets = 250;
  Testbed bed(seed, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  MeasuredFlow::Options options;
  options.element = use_element ? MeasuredFlow::Element::kInterposed : MeasuredFlow::Element::kOff;
  MeasuredFlow measured(&bed.loop(), flow.sender, flow.receiver, options);
  measured.Start();
  TimeSeries buffered;
  PeriodicTimer sampler(&bed.loop(), TimeDelta::FromMillis(200), [&] {
    buffered.Add(bed.loop().now(), static_cast<double>(flow.sender->SndBufUsed()) / 1024.0);
  });
  sampler.Start();
  bed.loop().RunUntil(SimTime::FromNanos(30'000'000'000LL));
  *goodput_out = measured.GoodputMbps(30.0);
  return buffered;
}

}  // namespace

int main() {
  std::printf("=== Figure 10: estimated buffered amount over time (KB) ===\n");
  std::printf("Setup: single flow, 50 Mbps / 30 ms RTT cloud-like path, 30 s\n\n");

  double goodput_plain = 0;
  double goodput_em = 0;
  TimeSeries plain = RunOne(600, false, &goodput_plain);
  TimeSeries with_em = RunOne(600, true, &goodput_em);

  std::printf("%-8s %-22s %-22s\n", "t(s)", "TCP Cubic alone (KB)", "Cubic+ELEMENT (KB)");
  for (int t = 1; t <= 30; ++t) {
    SimTime at = SimTime::FromNanos(static_cast<int64_t>(t) * 1'000'000'000LL);
    double a = 0;
    double b = 0;
    plain.InterpolateAt(at, &a);
    with_em.InterpolateAt(at, &b);
    std::printf("%-8d %-22.1f %-22.1f\n", t, a, b);
  }

  double mean_plain = plain.MeanAfter(SimTime::FromNanos(5'000'000'000LL));
  double mean_em = with_em.MeanAfter(SimTime::FromNanos(5'000'000'000LL));
  std::printf("\nsteady-state mean buffered: Cubic %.1f KB vs Cubic+ELEMENT %.1f KB\n",
              mean_plain, mean_em);
  std::printf("goodput: Cubic %.2f Mbps vs Cubic+ELEMENT %.2f Mbps\n", goodput_plain,
              goodput_em);

  bool shape_ok = mean_em < mean_plain * 0.5 && mean_em > 10.0 &&
                  goodput_em > goodput_plain * 0.9;
  std::printf("\nPaper shape check: ELEMENT keeps the buffered amount as small as possible\n"
              "without exhausting the buffer, preserving throughput.\nSHAPE %s\n",
              shape_ok ? "OK" : "MISMATCH");
  return shape_ok ? 0 : 1;
}
