// Section 7 "CPU overhead of ELEMENT": the paper measures ~4% CPU overhead
// with 40 traffic generators on a 1 Gbps / 50 ms path. Here the equivalent is
// the wall-clock cost of simulating the same scenario with and without
// ELEMENT attached, plus microbenchmarks of the per-call costs that make up
// that overhead (getsockopt polling, record matching, gating checks).

#include <benchmark/benchmark.h>

#include <memory>

#include "src/apps/iperf_app.h"
#include "src/element/byte_sink.h"
#include "src/element/delay_estimator.h"
#include "src/element/interposer.h"
#include "src/tcpsim/testbed.h"

namespace element {
namespace {

// Hand-wired: this times ELEMENT's overhead, and MeasuredFlow's tracer would add timed work.
void RunManyFlows(bool with_element, int flows, double seconds) {
  PathConfig path;
  path.rate = DataRate::Mbps(1000);
  path.one_way_delay = TimeDelta::FromMillis(25);
  path.queue_limit_packets = 2000;
  Testbed bed(1234, path);
  std::vector<Testbed::Flow> fs;
  std::vector<std::unique_ptr<ByteSink>> sinks;
  std::vector<std::unique_ptr<IperfApp>> apps;
  std::vector<std::unique_ptr<SinkApp>> readers;
  for (int i = 0; i < flows; ++i) {
    fs.push_back(bed.CreateFlow(TcpSocket::Config{}));
    if (with_element) {
      sinks.push_back(std::make_unique<InterposedSink>(&bed.loop(), fs.back().sender));
    } else {
      sinks.push_back(std::make_unique<RawTcpSink>(fs.back().sender));
    }
    apps.push_back(std::make_unique<IperfApp>(&bed.loop(), sinks.back().get()));
    readers.push_back(std::make_unique<SinkApp>(fs.back().receiver));
    apps.back()->Start();
    readers.back()->Start();
  }
  bed.loop().RunUntil(SimTime::FromNanos(static_cast<int64_t>(seconds * 1e9)));
  benchmark::DoNotOptimize(bed.loop().processed_events());
}

void BM_FortyFlowsPlain(benchmark::State& state) {
  for (auto _ : state) {
    RunManyFlows(false, 40, 2.0);
  }
}
BENCHMARK(BM_FortyFlowsPlain)->Unit(benchmark::kMillisecond);

void BM_FortyFlowsWithElement(benchmark::State& state) {
  for (auto _ : state) {
    RunManyFlows(true, 40, 2.0);
  }
}
BENCHMARK(BM_FortyFlowsWithElement)->Unit(benchmark::kMillisecond);

// Per-call cost of getsockopt(TCP_INFO) (the dominant per-poll cost in §7).
void BM_GetTcpInfo(benchmark::State& state) {
  PathConfig path;
  Testbed bed(1, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  bed.loop().RunUntil(SimTime::FromNanos(500'000'000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow.sender->GetTcpInfo());
  }
}
BENCHMARK(BM_GetTcpInfo);

// §7's shared-page optimization: polling an unchanged connection is nearly
// free (version check only), vs. re-marshalling the full struct.
void BM_SharedInfoPagePoll(benchmark::State& state) {
  PathConfig path;
  Testbed bed(1, path);
  Testbed::Flow flow = bed.CreateFlow(TcpSocket::Config{});
  bed.loop().RunUntil(SimTime::FromNanos(500'000'000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(&flow.sender->SharedInfoPage());
  }
}
BENCHMARK(BM_SharedInfoPagePoll);

// Sender estimator: one write record + one tcp_info sample that consumes it.
void BM_SenderEstimatorMatch(benchmark::State& state) {
  SenderDelayEstimator est;
  TcpInfoData info;
  info.tcpi_snd_mss = 1448;
  uint64_t seq = 0;
  SimTime t = SimTime::Zero();
  for (auto _ : state) {
    seq += 1448;
    t += TimeDelta::FromMicros(100);
    est.OnAppSend(seq, t);
    info.tcpi_bytes_acked = seq;
    est.OnTcpInfoSample(info, t);
  }
  benchmark::DoNotOptimize(est.delay_series().count());
}
BENCHMARK(BM_SenderEstimatorMatch);

// Receiver estimator: record + matching read.
void BM_ReceiverEstimatorMatch(benchmark::State& state) {
  ReceiverDelayEstimator est;
  TcpInfoData info;
  info.tcpi_rcv_mss = 1448;
  uint64_t segs = 0;
  SimTime t = SimTime::Zero();
  for (auto _ : state) {
    ++segs;
    t += TimeDelta::FromMicros(100);
    info.tcpi_segs_in = segs;
    est.OnTcpInfoSample(info, t);
    est.OnAppReceive(segs * 1448 - 700, t);
  }
  benchmark::DoNotOptimize(est.delay_series().count());
}
BENCHMARK(BM_ReceiverEstimatorMatch);

}  // namespace
}  // namespace element

BENCHMARK_MAIN();
