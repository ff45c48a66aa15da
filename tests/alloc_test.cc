// Allocation-count tests for the packet path. This binary replaces the
// global operator new/delete with counting versions, so it is kept apart
// from every other test.
//
// The steady-state test runs 4 greedy Cubic flows through an FQ-CoDel
// bottleneck (random wire loss plus AQM drops, so SACK recovery runs
// throughout) with a pfifo_fast ACK path, and no tracer or ELEMENT. After a
// warm-up every queue, ring and slab has reached its working size, and the
// next 2 simulated seconds must not allocate at all.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "src/apps/iperf_app.h"
#include "src/common/ring_fifo.h"
#include "src/element/byte_sink.h"
#include "src/netsim/fq_codel.h"
#include "src/tcpsim/testbed.h"

namespace {

bool g_counting = false;
uint64_t g_allocations = 0;

void* CountedAlloc(std::size_t n, std::size_t align) {
  if (g_counting) {
    ++g_allocations;
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

TEST(AllocTest, FqCoDelConstructionIsConstantInBuckets) {
  FqCoDelParams small;
  small.num_buckets = 16;
  FqCoDelParams full;  // 1024 buckets
  ASSERT_EQ(full.num_buckets, 1024u);
  uint64_t n_small = CountAllocations([&] { FqCoDel q(small); });
  uint64_t n_full = CountAllocations([&] { FqCoDel q(full); });
  EXPECT_EQ(n_full, n_small);
  EXPECT_LE(n_full, 1u);  // the bucket array; a bucket's queue allocates on first use
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

}  // namespace
}  // namespace element
