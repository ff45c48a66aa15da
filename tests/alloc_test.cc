// Allocation-count tests for the packet path. This binary replaces the
// global operator new/delete with counting versions, so it is kept apart
// from every other test.
//
// The steady-state test runs 4 greedy Cubic flows through an FQ-CoDel
// bottleneck (random wire loss plus AQM drops, so SACK recovery runs
// throughout) with a pfifo_fast ACK path, and no tracer or ELEMENT. After a
// warm-up every queue, ring and slab has reached its working size, and the
// next 2 simulated seconds must not allocate at all.
//
// The Rng tests check that a random stream costs nothing until its first
// draw: only then does it allocate its engine, once. Engine allocations are
// told apart by their size. The histogram test checks the same of a
// Histogram: nothing until its first in-range sample, then only its window.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <utility>
#include <vector>

#include "src/apps/iperf_app.h"
#include "src/common/ring_fifo.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/element/byte_sink.h"
#include "src/netsim/fq_codel.h"
#include "src/netsim/pipe.h"
#include "src/tcpsim/testbed.h"
#include "src/topo/topology.h"

namespace {

bool g_counting = false;
uint64_t g_allocations = 0;
uint64_t g_engine_allocations = 0;  // of an Rng engine's size

// The size of the engine behind an Rng (the type is named here only for it).
constexpr std::size_t kEngineBytes = sizeof(std::mt19937_64);  // lint_sim: allow(rng-engine)

void* CountedAlloc(std::size_t n, std::size_t align) {
  if (g_counting) {
    ++g_allocations;
    g_engine_allocations += n == kEngineBytes ? 1 : 0;
  }
  if (n == 0) {
    n = 1;
  }
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n, alignof(std::max_align_t)); }
void* operator new[](std::size_t n) { return CountedAlloc(n, alignof(std::max_align_t)); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace element {
namespace {

// Counts the allocations made while `fn` runs.
template <typename Fn>
uint64_t CountAllocations(Fn&& fn) {
  g_allocations = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocations;
}

// Counts the allocations of an Rng engine's size made while `fn` runs.
template <typename Fn>
uint64_t CountEngineAllocations(Fn&& fn) {
  g_engine_allocations = 0;
  CountAllocations(std::forward<Fn>(fn));
  return g_engine_allocations;
}

SimTime Sec(double s) { return SimTime::FromNanos(static_cast<int64_t>(s * 1e9)); }

TEST(AllocTest, CounterSeesAllocations) {
  uint64_t n = CountAllocations([] { auto v = std::make_unique<std::vector<int>>(100); });
  EXPECT_EQ(n, 2u);
}

TEST(AllocTest, EmptyRingFifoAllocatesNothing) {
  uint64_t n = CountAllocations([] {
    RingFifo<Packet> ring;
    RingFifo<Packet> moved(std::move(ring));
  });
  EXPECT_EQ(n, 0u);
}

// A histogram stores only the window of bins it has filled: nothing until its
// first in-range sample, then one bin that more samples in it never regrow.
TEST(AllocTest, HistogramAllocatesOnlyItsFilledWindow) {
  EXPECT_EQ(CountAllocations([] { Histogram empty; }), 0u);
  Histogram h;
  EXPECT_EQ(CountAllocations([&] { h.Add(0.010); }), 1u);
  EXPECT_EQ(CountAllocations([&] {
              for (int i = 0; i < 1000; ++i) {
                h.Add(0.010);
              }
              h.Add(0.0);   // underflow
              h.Add(-1.0);  // underflow
              h.Add(1e-9);  // below the floor
              h.Add(5e3);   // overflow
            }),
            0u);
  EXPECT_EQ(h.count(), 1005u);
}

TEST(AllocTest, SteadyStatePacketPathAllocatesNothing) {
  PathConfig path;
  path.qdisc = QdiscType::kFqCoDel;
  path.queue_limit_packets = 200;
  path.rate = DataRate::Mbps(20);
  path.one_way_delay = TimeDelta::FromMillis(10);
  path.loss_probability = 0.005;
  Testbed bed(17, path);
  std::vector<Testbed::Flow> flows;
  std::vector<std::unique_ptr<RawTcpSink>> sinks;
  std::vector<std::unique_ptr<IperfApp>> apps;
  std::vector<std::unique_ptr<SinkApp>> readers;
  for (int i = 0; i < 4; ++i) {
    TcpSocket::Config config;
    config.congestion_control = "cubic";
    flows.push_back(bed.CreateFlow(config));
    sinks.push_back(std::make_unique<RawTcpSink>(flows.back().sender));
    apps.push_back(std::make_unique<IperfApp>(&bed.loop(), sinks.back().get()));
    readers.push_back(std::make_unique<SinkApp>(flows.back().receiver));
    apps.back()->Start();
    readers.back()->Start();
  }
  bed.loop().RunUntil(Sec(2.0));
  uint64_t events_before = bed.loop().processed_events();
  uint64_t retransmits_before = 0;
  for (const Testbed::Flow& f : flows) {
    retransmits_before += f.sender->total_retransmits();
  }

  uint64_t allocations = CountAllocations([&] { bed.loop().RunUntil(Sec(4.0)); });

  uint64_t retransmits = 0;
  for (const Testbed::Flow& f : flows) {
    retransmits += f.sender->total_retransmits();
    EXPECT_GT(f.receiver->app_bytes_read(), 1'000'000u) << "flow " << f.flow_id;
  }
  // The window did real work: over ten thousand events and SACK-driven
  // retransmissions on the measured stretch.
  EXPECT_GT(bed.loop().processed_events() - events_before, 10'000u);
  EXPECT_GT(retransmits - retransmits_before, 10u);
  EXPECT_GT(bed.path().forward().qdisc().stats().dropped_packets, 0u);
  EXPECT_EQ(bed.loop().payload_arena().oversize_allocs(), 0u);
  EXPECT_EQ(allocations, 0u);
}

TEST(AllocTest, FqCoDelConstructionMakesAtMostOneAllocation) {
  uint64_t n = CountAllocations([] { FqCoDel q; });
  EXPECT_LE(n, 1u);  // the slot index; a bucket's queue is made at its first packet
}

TEST(AllocTest, StridedDemuxTableGrowsOnce) {
  // A dumbbell of 128 flows over 32 pairs hands pair p the ids p+1, p+33,
  // p+65 and p+97, so each host's table sees ids a stride apart.
  constexpr uint64_t kPairs = 32;
  struct Capture : PacketSink {
    void Deliver(Packet) override {}
  } capture;
  for (uint64_t p = 0; p < kPairs; ++p) {
    Demux demux;
    uint64_t n = CountAllocations([&] {
      for (uint64_t flow_id = p + 1; flow_id <= 128; flow_id += kPairs) {
        demux.Register(flow_id, &capture);
      }
    });
    EXPECT_LE(n, 1u) << "pair " << p;
  }
}

TEST(AllocTest, TcpSocketConstructionIsConstant) {
  EventLoop loop;
  Demux demux;
  struct Capture : PacketSink {
    void Deliver(Packet) override {}
  } capture;
  auto construct = [&](uint64_t flow_id) {
    return CountAllocations([&] {
      TcpSocket socket(&loop, Rng(flow_id), TcpSocket::Config{}, flow_id, &capture, &demux);
    });
  };
  // First use may set up process-wide state (e.g. CC registry), and it grows
  // the demux's table, indexed by flow id, to hold id 3.
  construct(3);
  uint64_t first = construct(2);
  uint64_t second = construct(3);
  EXPECT_EQ(first, second);
  // The congestion controller and nothing else: registering in the demux
  // allocates nothing, and the retransmit queue and the out-of-order buffer
  // allocate on first use.
  EXPECT_LE(first, 1u);
}

TEST(AllocTest, NeverDrawnStreamsAllocateNothing) {
  Rng root(1);
  root.Uniform();  // the parent's own engine, made before the count
  uint64_t n = CountAllocations([&] {
    Rng fresh(5);
    Rng child = root.Fork();
    Rng moved(std::move(child));
    Rng assigned(6);
    assigned = std::move(fresh);
  });
  EXPECT_EQ(n, 0u);

  Rng lazy(7);
  EXPECT_EQ(CountAllocations([&] { lazy.Uniform(); }), 1u);
  EXPECT_EQ(CountAllocations([&] {
              lazy.Exponential(1.0);
              Rng child = lazy.Fork();
              Rng moved(std::move(lazy));
              moved.Normal(0.0, 1.0);
            }),
            0u);
  Rng forked_first(8);
  EXPECT_EQ(CountAllocations([&] { Rng child = forked_first.Fork(); }), 1u);
}

TEST(AllocTest, DumbbellAllocatesNoEngineBeforeTheRun) {
  constexpr int kPairs = 32;
  EventLoop loop;
  Rng rng(11);
  rng.Uniform();  // the run's root stream draws first
  TopologySpec spec;
  spec.host_pairs = kPairs;
  spec.qdisc = QdiscType::kFqCoDel;
  std::unique_ptr<Network> net;
  std::vector<TcpSocketPair> pairs;
  uint64_t built = CountEngineAllocations([&] {
    net = std::make_unique<Network>(&loop, &rng, spec);
    for (int p = 0; p < kPairs; ++p) {
      uint64_t flow_id = net->AllocateFlowId();
      net->RouteFlow(flow_id, p);
      pairs.push_back(ConnectTcpPair(&loop, &rng, TcpSocket::Config{}, flow_id, net->sender(p),
                                     net->receiver(p)));
    }
  });
  EXPECT_EQ(built, 0u);

  for (TcpSocketPair& pair : pairs) {
    TcpSocket* sender = pair.sender.get();
    TcpSocket* receiver = pair.receiver.get();
    sender->SetEstablishedCallback([sender] { sender->Write(50'000); });
    receiver->SetReadableCallback([receiver] {
      while (receiver->Read(1 << 20) > 0) {
      }
    });
  }
  // Each receiver draws its readable-wakeup latency, so its engine is made at
  // its first read. Senders and the lossless, jitter-free pipes never draw.
  uint64_t run = CountEngineAllocations([&] { loop.RunUntil(Sec(2.0)); });
  for (const TcpSocketPair& pair : pairs) {
    EXPECT_EQ(pair.receiver->app_bytes_read(), 50'000u);
  }
  EXPECT_EQ(run, static_cast<uint64_t>(kPairs));
}

}  // namespace
}  // namespace element
