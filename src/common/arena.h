// Fixed-block free-list arena for per-loop object recycling.
//
// The simulator's steady-state forwarding path allocates one protocol payload
// per packet (TcpSegmentPayload / UdpDatagramPayload, held by shared_ptr
// inside Packet). Each EventLoop owns one FreeListArena; payloads are drawn
// from it via ArenaAllocator + std::allocate_shared, so after warm-up the
// payload + control block come off the freelist and return to it when the
// last Packet copy dies — no malloc/free churn per packet.
//
// Rules (see docs/evloop.md):
//   - the arena is single-threaded, like the loop that owns it;
//   - blocks handed out must be freed back before the arena is destroyed
//     (payloads must not outlive their loop);
//   - requests larger than kBlockBytes fall through to the global heap, so
//     oversized payload types degrade gracefully instead of corrupting the
//     freelist.
//
// A debug-build audit (ELEMENT_AUDIT) catches double-frees: returning a block
// already on the freelist aborts with the offending pointer. Free blocks carry
// a tag word next to their freelist link, so the audit allocates nothing.

#ifndef ELEMENT_SRC_COMMON_ARENA_H_
#define ELEMENT_SRC_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "src/common/check.h"

namespace element {

class FreeListArena {
 public:
  // Covers shared_ptr control block + the largest pooled payload with room
  // to spare; a multiple of the default operator-new alignment.
  static constexpr size_t kBlockBytes = 192;
  static constexpr size_t kBlocksPerChunk = 64;

  FreeListArena() = default;
  FreeListArena(const FreeListArena&) = delete;
  FreeListArena& operator=(const FreeListArena&) = delete;

  void* Allocate(size_t bytes) {
    if (bytes > kBlockBytes) {
      ++oversize_allocs_;
      return ::operator new(bytes);
    }
    ++pool_allocs_;
    // Freed blocks are reused first; only then is a fresh one carved.
    FreeNode* node;
    if (free_head_ != nullptr) {
      node = free_head_;
      free_head_ = node->next;
    } else {
      if (carve_ == carve_end_) {
        Grow();
      }
      node = reinterpret_cast<FreeNode*>(carve_);
      carve_ += kBlockBytes;
    }
    // Cleared on a carved block too: its chunk is uninitialized and may hold
    // an old tag, and a caller need not overwrite the tag word.
    node->free_tag = 0;
    return node;
  }

  void Free(void* p, size_t bytes) {
    if (bytes > kBlockBytes) {
      ::operator delete(p);
      return;
    }
    FreeNode* node = static_cast<FreeNode*>(p);
    ELEMENT_AUDIT(node->free_tag != kFreeTag) << "arena double-free of block " << p;
    node->free_tag = kFreeTag;
    node->next = free_head_;
    free_head_ = node;
  }

  // Blocks in the chunks allocated so far, carved or not (bounded-growth
  // assertions in tests).
  size_t capacity_blocks() const {  // lint_sim: allow(test-only) -- counter
    return chunks_.size() * kBlocksPerChunk;
  }
  uint64_t pool_allocs() const {  // lint_sim: allow(test-only) -- counter
    return pool_allocs_;
  }
  uint64_t oversize_allocs() const {  // lint_sim: allow(test-only) -- counter
    return oversize_allocs_;
  }

 private:
  // Marks a block on the freelist; cleared when the block is handed out.
  static constexpr uint64_t kFreeTag = 0x6672656562c0c4edull;
  struct FreeNode {
    FreeNode* next;
    uint64_t free_tag;
  };
  static_assert(sizeof(FreeNode) <= kBlockBytes);
  static_assert(kBlockBytes % alignof(std::max_align_t) == 0);

  // A new chunk, left uninitialized: its blocks are carved one at a time, in
  // address order, as the free list runs dry.
  void Grow() {
    auto chunk = std::make_unique_for_overwrite<unsigned char[]>(kBlockBytes * kBlocksPerChunk);
    carve_ = chunk.get();
    carve_end_ = carve_ + kBlockBytes * kBlocksPerChunk;
    chunks_.push_back(std::move(chunk));
  }

  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  FreeNode* free_head_ = nullptr;
  unsigned char* carve_ = nullptr;      // the newest chunk's next uncarved block
  unsigned char* carve_end_ = nullptr;  // one past the newest chunk's last block
  uint64_t pool_allocs_ = 0;
  uint64_t oversize_allocs_ = 0;
};

// Minimal std allocator over a FreeListArena, for std::allocate_shared.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(FreeListArena* arena) : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) { return static_cast<T*>(arena_->Allocate(n * sizeof(T))); }
  void deallocate(T* p, size_t n) { arena_->Free(p, n * sizeof(T)); }

  FreeListArena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const {
    return arena_ == other.arena();
  }
  template <typename U>
  bool operator!=(const ArenaAllocator<U>& other) const {
    return arena_ != other.arena();
  }

 private:
  FreeListArena* arena_;
};

}  // namespace element

#endif  // ELEMENT_SRC_COMMON_ARENA_H_
