// Microbenchmarks of the substrate primitives, including the ablations
// DESIGN.md calls out: event-loop scheduling, per-qdisc enqueue/dequeue cost,
// congestion-control per-ACK cost, the BBR max filter, and the ground-truth
// tracer's byte lookups.

#include <benchmark/benchmark.h>

#include <deque>
#include <memory>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/evloop/event_loop.h"
#include "src/netsim/codel.h"
#include "src/netsim/fq_codel.h"
#include "src/netsim/pfifo_fast.h"
#include "src/netsim/pie.h"
#include "src/tcpsim/cc_bbr.h"
#include "src/tcpsim/congestion_control.h"
#include "src/trace/ground_truth.h"

namespace element {
namespace {

// 1000 timers, made once; each iteration arms them all and runs them out.
void BM_EventLoopScheduleAndRun(benchmark::State& state) {
  EventLoop loop;
  int sink = 0;
  std::deque<Timer> timers;
  for (int i = 0; i < 1000; ++i) {
    timers.emplace_back(&loop, [&sink] { ++sink; });
  }
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      timers[static_cast<size_t>(i)].RestartAfter(TimeDelta::FromMicros(i));
    }
    loop.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopScheduleAndRun);

void BM_EventLoopCancelHalf(benchmark::State& state) {
  EventLoop loop;
  int sink = 0;
  std::deque<Timer> timers;
  for (int i = 0; i < 1000; ++i) {
    timers.emplace_back(&loop, [&sink] { ++sink; });
  }
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      timers[static_cast<size_t>(i)].RestartAfter(TimeDelta::FromMicros(i));
    }
    for (size_t i = 0; i < timers.size(); i += 2) {
      timers[i].Cancel();
    }
    loop.Run();
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_EventLoopCancelHalf);

template <typename MakeQdisc>
void QdiscChurn(benchmark::State& state, MakeQdisc make) {
  auto q = make();
  Rng rng(1);
  SimTime t = SimTime::Zero();
  for (auto _ : state) {
    Packet p;
    p.flow_id = static_cast<uint64_t>(rng.UniformInt(1, 8));
    p.size_bytes = 1500;
    q->Enqueue(std::move(p), t);
    t += TimeDelta::FromMicros(10);
    benchmark::DoNotOptimize(q->Dequeue(t));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_QdiscPfifoFast(benchmark::State& state) {
  QdiscChurn(state, [] { return std::make_unique<PfifoFast>(1000); });
}
BENCHMARK(BM_QdiscPfifoFast);

void BM_QdiscCoDel(benchmark::State& state) {
  QdiscChurn(state, [] { return std::make_unique<CoDel>(); });
}
BENCHMARK(BM_QdiscCoDel);

void BM_QdiscFqCoDel(benchmark::State& state) {
  QdiscChurn(state, [] { return std::make_unique<FqCoDel>(); });
}
BENCHMARK(BM_QdiscFqCoDel);

void BM_QdiscPie(benchmark::State& state) {
  QdiscChurn(state, [] { return std::make_unique<Pie>(Rng(2)); });
}
BENCHMARK(BM_QdiscPie);

void CcAckLoop(benchmark::State& state, const char* name) {
  auto cc = MakeCongestionControl(name);
  cc->OnConnectionStart(SimTime::Zero(), 1448);
  SimTime t = SimTime::Zero();
  uint64_t delivered = 0;
  for (auto _ : state) {
    t += TimeDelta::FromMicros(500);
    delivered += 1448;
    AckSample s;
    s.now = t;
    s.acked_bytes = 1448;
    s.bytes_in_flight = 30 * 1448;
    s.rtt = TimeDelta::FromMillis(50);
    s.srtt = TimeDelta::FromMillis(50);
    s.min_rtt = TimeDelta::FromMillis(48);
    s.delivered_bytes = delivered;
    s.delivery_rate = DataRate::Mbps(10);
    s.mss = 1448;
    cc->OnAck(s);
  }
  benchmark::DoNotOptimize(cc->CwndSegments());
}

void BM_CcCubicOnAck(benchmark::State& state) { CcAckLoop(state, "cubic"); }
BENCHMARK(BM_CcCubicOnAck);
void BM_CcRenoOnAck(benchmark::State& state) { CcAckLoop(state, "reno"); }
BENCHMARK(BM_CcRenoOnAck);
void BM_CcVegasOnAck(benchmark::State& state) { CcAckLoop(state, "vegas"); }
BENCHMARK(BM_CcVegasOnAck);
void BM_CcBbrOnAck(benchmark::State& state) { CcAckLoop(state, "bbr"); }
BENCHMARK(BM_CcBbrOnAck);

void BM_WindowedMaxFilter(benchmark::State& state) {
  WindowedMaxFilter filter(10);
  Rng rng(3);
  uint64_t round = 0;
  for (auto _ : state) {
    filter.Update(rng.Uniform(), ++round);
    benchmark::DoNotOptimize(filter.GetMax());
  }
}
BENCHMARK(BM_WindowedMaxFilter);

void BM_TracerTransmitAndLookup(benchmark::State& state) {
  GroundTruthTracer tracer;
  uint64_t seq = 0;
  SimTime t = SimTime::Zero();
  for (auto _ : state) {
    tracer.OnAppWrite(seq, seq + 1448, t);
    tracer.OnTcpTransmit(seq, seq + 1448, t + TimeDelta::FromMicros(50), false);
    SimTime out;
    benchmark::DoNotOptimize(tracer.WriteTimeOf(seq, &out));
    seq += 1448;
    t += TimeDelta::FromMicros(100);
  }
}
BENCHMARK(BM_TracerTransmitAndLookup);

void BM_SampleSetQuantile(benchmark::State& state) {
  SampleSet s;
  Rng rng(4);
  for (int i = 0; i < 100000; ++i) {
    s.Add(rng.Uniform());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.Quantile(0.99));
  }
}
BENCHMARK(BM_SampleSetQuantile);

}  // namespace
}  // namespace element

BENCHMARK_MAIN();
