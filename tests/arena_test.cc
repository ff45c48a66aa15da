// Unit tests for the free-list arena backing pooled Packet payloads.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/arena.h"
#include "src/evloop/event_loop.h"
#include "src/netsim/packet.h"

namespace element {
namespace {

TEST(FreeListArenaTest, RecyclesBlocks) {
  FreeListArena arena;
  void* a = arena.Allocate(64);
  void* b = arena.Allocate(64);
  EXPECT_NE(a, b);
  arena.Free(a, 64);
  // LIFO free list: the next pool allocation reuses the freed block.
  void* c = arena.Allocate(128);
  EXPECT_EQ(c, a);
  arena.Free(b, 64);
  arena.Free(c, 128);
  EXPECT_EQ(arena.oversize_allocs(), 0u);
}

TEST(FreeListArenaTest, FirstAllocateMakesOneChunk) {
  FreeListArena arena;
  EXPECT_EQ(arena.capacity_blocks(), 0u);
  void* a = arena.Allocate(64);
  EXPECT_EQ(arena.capacity_blocks(), 64u);
  arena.Free(a, 64);
}

TEST(FreeListArenaTest, FreshChunkCarvesBlocksInAddressOrder) {
  FreeListArena arena;
  std::vector<unsigned char*> blocks;
  for (size_t i = 0; i < FreeListArena::kBlocksPerChunk; ++i) {
    blocks.push_back(static_cast<unsigned char*>(arena.Allocate(64)));
  }
  EXPECT_EQ(arena.capacity_blocks(), FreeListArena::kBlocksPerChunk);
  for (size_t i = 1; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i], blocks[i - 1] + FreeListArena::kBlockBytes) << "block " << i;
  }
  // The chunk is used up; the next block comes from a second one.
  void* next = arena.Allocate(64);
  EXPECT_EQ(arena.capacity_blocks(), 2 * FreeListArena::kBlocksPerChunk);
  arena.Free(next, 64);
  for (unsigned char* b : blocks) {
    arena.Free(b, 64);
  }
}

TEST(FreeListArenaTest, FreedBlockIsReusedBeforeCarving) {
  FreeListArena arena;
  unsigned char* a = static_cast<unsigned char*>(arena.Allocate(64));
  unsigned char* b = static_cast<unsigned char*>(arena.Allocate(64));
  ASSERT_EQ(b, a + FreeListArena::kBlockBytes);
  arena.Free(a, 64);
  // The chunk still has uncarved blocks, yet the freed one comes back first.
  void* c = arena.Allocate(64);
  EXPECT_EQ(c, a);
  // With the free list empty again, carving resumes after b.
  void* d = arena.Allocate(64);
  EXPECT_EQ(d, b + FreeListArena::kBlockBytes);
  EXPECT_EQ(arena.capacity_blocks(), FreeListArena::kBlocksPerChunk);
  arena.Free(b, 64);
  arena.Free(c, 64);
  arena.Free(d, 64);
}

TEST(FreeListArenaTest, SteadyStateChurnDoesNotGrow) {
  FreeListArena arena;
  std::vector<void*> live;
  for (int i = 0; i < 8; ++i) {
    live.push_back(arena.Allocate(96));
  }
  size_t capacity_after_warmup = arena.capacity_blocks();
  for (int i = 0; i < 100'000; ++i) {
    arena.Free(live.back(), 96);
    live.pop_back();
    live.push_back(arena.Allocate(96));
  }
  EXPECT_EQ(arena.capacity_blocks(), capacity_after_warmup);
  for (void* p : live) {
    arena.Free(p, 96);
  }
}

TEST(FreeListArenaTest, OversizeFallsBackToHeap) {
  FreeListArena arena;
  void* big = arena.Allocate(FreeListArena::kBlockBytes + 1);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(arena.oversize_allocs(), 1u);
  EXPECT_EQ(arena.pool_allocs(), 0u);
  arena.Free(big, FreeListArena::kBlockBytes + 1);
}

TEST(FreeListArenaTest, PooledPayloadRoundTrip) {
  EventLoop loop;
  struct TestPayload : Payload {
    int value = 0;
  };
  auto p = MakePooledPayload<TestPayload>(loop.payload_arena());
  p->value = 42;
  std::shared_ptr<const Payload> base = p;
  p.reset();
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(static_cast<const TestPayload*>(base.get())->value, 42);
  EXPECT_GE(loop.payload_arena().pool_allocs(), 1u);
  size_t cap = loop.payload_arena().capacity_blocks();
  base.reset();
  // Release returned the block to the pool; a fresh payload reuses it.
  auto q = MakePooledPayload<TestPayload>(loop.payload_arena());
  EXPECT_EQ(loop.payload_arena().capacity_blocks(), cap);
  q.reset();
}

TEST(FreeListArenaTest, AllocatorSatisfiesContainer) {
  FreeListArena arena;
  {
    std::vector<int, ArenaAllocator<int>> v{ArenaAllocator<int>(&arena)};
    for (int i = 0; i < 1000; ++i) {
      v.push_back(i);  // grows past kBlockBytes: exercises the oversize path
    }
    EXPECT_EQ(v[999], 999);
  }
  EXPECT_GT(arena.pool_allocs() + arena.oversize_allocs(), 0u);
}

}  // namespace
}  // namespace element
