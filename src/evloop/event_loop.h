// Discrete-event simulation core: a monotonic virtual clock and an ordered
// queue of callbacks. Everything else in this repository (links, TCP stacks,
// the ELEMENT trackers that the paper runs as threads) is driven by this loop,
// which makes runs deterministic and reproducible.
//
// The core is allocation-free on the steady-state path:
//   - event records live in a chunked slab (stable addresses, freelist reuse);
//   - pending events sit in an index-addressable 4-ary min-heap whose
//     entries carry their (time, seq) key next to the slot id, so sifting
//     compares inside the heap array and touches a record only to update its
//     back-pointer; Cancel() removes the record in O(log n) — no tombstones,
//     no hash lookup on fire;
//   - handles are generation-tagged, so a stale cancel is a checked no-op;
//   - callbacks are stored in small-buffer InlineCallback storage (no heap
//     allocation for captures up to kInlineBytes, which covers every
//     scheduling site in src/);
//   - Timer re-arms in place (Restart reuses its slab slot), which is what
//     the TCP RTO/delayed-ACK/pacing re-arm churn rides on. A timer fires in
//     place: it stays at the heap root while its callback runs, so a
//     Restart() from the callback is one sift down from the root, and the
//     loop pops it only if the callback left it un-armed;
//   - FifoTimer serves a stream of non-decreasing fire times (a link's
//     in-flight packets) from one heap entry: only the stream's head is in
//     the heap, and each fire re-keys it in place with the next entry;
//   - a per-loop FreeListArena recycles Packet payload allocations.
//
// Ordering guarantee: events fire in (time, schedule order). Every schedule,
// every Timer::Restart and every FifoTimer::Push draws a fresh monotonic
// sequence number, so equal-time events run in exactly the order they were
// (re-)armed or pushed.

#ifndef ELEMENT_SRC_EVLOOP_EVENT_LOOP_H_
#define ELEMENT_SRC_EVLOOP_EVENT_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/arena.h"
#include "src/common/ring_fifo.h"
#include "src/common/time.h"

namespace element {

// Move-only type-erased callable with small-buffer storage. Callables whose
// size fits kInlineBytes live inside the object (and therefore inside the
// event slab); larger ones fall back to the heap. Everything scheduled on the
// hot paths in src/ fits inline.
class InlineCallback {
 public:
  static constexpr size_t kInlineBytes = 48;

  InlineCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      new (buf_) Fn(std::forward<F>(f));
      ops_ = &InlineOps<Fn>::ops;
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      ops_ = &HeapOps<Fn>::ops;
    }
  }

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { Reset(); }

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }
  // True when the callable lives in the inline buffer (no heap allocation).
  bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    void (*invoke)(void*);
    // Move-constructs into dst from src and destroys src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
    bool inline_storage;
  };

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* p) { (*static_cast<Fn*>(p))(); }
    static void Relocate(void* dst, void* src) {
      Fn* from = static_cast<Fn*>(src);
      new (dst) Fn(std::move(*from));
      from->~Fn();
    }
    static void Destroy(void* p) { static_cast<Fn*>(p)->~Fn(); }
    static constexpr Ops ops{&Invoke, &Relocate, &Destroy, /*inline_storage=*/true};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn*& Slot(void* p) { return *static_cast<Fn**>(p); }
    static void Invoke(void* p) { (*Slot(p))(); }
    static void Relocate(void* dst, void* src) {
      *static_cast<Fn**>(dst) = Slot(src);
    }
    static void Destroy(void* p) { delete Slot(p); }
    static constexpr Ops ops{&Invoke, &Relocate, &Destroy, /*inline_storage=*/false};
  };

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// Generation-tagged reference to a pending one-shot event. A handle whose
// event already fired (or was cancelled, or whose slot was since reused)
// no-ops on Cancel: the generation check makes stale handles safe.
struct EventHandle {
  uint32_t slot = kInvalidSlot;
  uint32_t generation = 0;

  static constexpr uint32_t kInvalidSlot = 0xffffffffu;
  bool IsValid() const { return slot != kInvalidSlot; }
};

class Timer;
class FifoTimer;

class EventLoop {
 public:
  using Callback = InlineCallback;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  ~EventLoop();

  SimTime now() const { return now_; }

  // Schedules `cb` at absolute time `at` (>= now; earlier clamps to now).
  // Returns a handle usable with Cancel().
  EventHandle ScheduleAt(SimTime at, Callback cb);
  EventHandle ScheduleAfter(TimeDelta delay, Callback cb);

  // Cancels a pending event in O(log n), releasing its slot immediately.
  // Returns true when the event was pending; a stale or invalid handle is a
  // no-op returning false.
  bool Cancel(EventHandle h);

  // Runs until the queue drains or Stop() is called.
  void Run();
  // Runs events with time <= deadline, then sets now to the deadline.
  void RunUntil(SimTime deadline);
  void RunFor(TimeDelta d) { RunUntil(now_ + d); }
  void Stop() { stopped_ = true; }

  // Events waiting to fire. A timer whose callback is running is not
  // pending (though it sits at the heap root until the callback returns),
  // and a FifoTimer counts once however many entries it holds.
  size_t pending_events() const {
    return heap_.size() - (firing_slot_ != EventHandle::kInvalidSlot ? 1 : 0);
  }
  uint64_t processed_events() const { return processed_; }

  // Introspection for tests and benchmarks: bounded-growth assertions.
  size_t heap_capacity() const { return heap_.capacity(); }
  size_t slab_slots() const { return chunks_.size() << kChunkShift; }

  // Per-loop arena recycling Packet payload allocations (see
  // MakePooledPayload in src/netsim/packet.h). Payloads drawn from it must
  // not outlive the loop.
  FreeListArena& payload_arena() { return payload_arena_; }

  // Heap-invariant audit (parent <= children, back-pointer consistency,
  // each entry's key equal to its record's).
  // O(n); compiled into debug builds via the periodic fire-path audit and
  // callable directly from tests.
  void AuditHeapInvariant() const;

 private:
  friend class Timer;
  friend class FifoTimer;

  static constexpr uint32_t kChunkShift = 8;  // 256 records per slab chunk
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr uint32_t kNotInHeap = 0xffffffffu;

  struct Record {
    // The event's key; its heap entry holds a copy while it is pending.
    SimTime at;
    uint64_t seq = 0;  // FIFO tie-break among equal times
    uint32_t generation = 1;
    uint32_t heap_index = kNotInHeap;
    uint32_t next_free = EventHandle::kInvalidSlot;
    enum class Kind : uint8_t { kFree, kOneShot, kTrampoline };
    Kind kind = Kind::kFree;
    // Trampoline target (Timer-owned slots): fixed function + context, no
    // callback storage churn on re-arm.
    void (*fn)(void*) = nullptr;
    void* arg = nullptr;
    // One-shot callable (moved out on fire).
    InlineCallback cb;
  };

  Record& record(uint32_t slot) { return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)]; }
  const Record& record(uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  uint32_t AllocSlot();
  void FreeSlot(uint32_t slot);

  // A pending event: its key, copied from the record, and its slot.
  struct HeapEntry {
    SimTime at;
    uint64_t seq;
    uint32_t slot;
  };

  // (time, seq) lexicographic order.
  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.at != b.at) {
      return a.at < b.at;
    }
    return a.seq < b.seq;
  }

  // Copies the slot's key into a new heap entry.
  void HeapPush(uint32_t slot);
  void HeapRemove(uint32_t slot);  // arbitrary position, O(log n)
  void HeapPopTop();
  void SiftUp(uint32_t index);
  void SiftDown(uint32_t index);

  // Timer plumbing: a trampoline slot is owned by its Timer for the Timer's
  // lifetime; arming inserts it into the heap (or re-keys it where it is),
  // and a fire that leaves it un-armed removes it but keeps the slot
  // allocated so Restart() re-arms in place.
  EventHandle AllocTrampoline(void (*fn)(void*), void* arg);
  // Arms at `at` (clamped to now) with a fresh sequence number.
  void ArmTrampoline(EventHandle h, SimTime at);
  // Arms with a key drawn earlier (a FifoTimer entry's).
  void ArmTrampolineKeyed(EventHandle h, SimTime at, uint64_t seq);
  bool DisarmTrampoline(EventHandle h);
  void ReleaseTrampoline(EventHandle h);

  // Returns the slot of the next event with time <= deadline, still at the
  // heap root, or kInvalidSlot.
  uint32_t NextRunnable(SimTime deadline) const;
  void RunLoop(SimTime deadline);

  SimTime now_ = SimTime::Zero();
  uint64_t next_seq_ = 1;
  uint64_t processed_ = 0;
  bool stopped_ = false;

  std::vector<std::unique_ptr<Record[]>> chunks_;
  uint32_t free_head_ = EventHandle::kInvalidSlot;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap over (at, seq)
  // The trampoline slot whose callback is running, at heap_[0]; cleared when
  // the callback re-arms or releases it.
  uint32_t firing_slot_ = EventHandle::kInvalidSlot;

  FreeListArena payload_arena_;
};

// One-shot, re-armable timer with a fixed callback. The callback is stored
// once at construction; Restart() re-arms the timer's slab slot in place
// (new deadline, fresh sequence number) without touching callback storage —
// the zero-allocation replacement for the schedule/cancel churn of re-armed
// timeouts (TCP RTO, delayed ACK, pacing).
//
// Destroying the timer cancels any pending fire, so callbacks never outlive
// their owner (no alive-flag guards needed). Destroying a timer from inside
// its own callback is allowed only as the callback's last action.
class Timer {
 public:
  Timer(EventLoop* loop, EventLoop::Callback cb) : loop_(loop), cb_(std::move(cb)) {}
  ~Timer();

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // Arms (or re-arms in place) the timer to fire at `at` (>= now; earlier
  // clamps to now). Re-arming draws a fresh sequence number, exactly as a
  // cancel + schedule would.
  void Restart(SimTime at);
  void RestartAfter(TimeDelta delay) { Restart(loop_->now() + delay); }

  // Disarms a pending fire; returns true when the timer was pending.
  bool Cancel();

  bool pending() const { return pending_; }
  // Deadline of the pending fire; meaningful only while pending().
  SimTime deadline() const { return deadline_; }

 private:
  static void FireTrampoline(void* self);

  EventLoop* loop_;
  EventLoop::Callback cb_;
  EventHandle handle_;  // trampoline slot, allocated on first Restart
  bool pending_ = false;
  SimTime deadline_;
};

// A stream of fire times served by one callback and one heap entry: the
// scheduling shape of a link's in-flight packets, which leave in the order
// they entered. Push() appends a fire; times must be non-decreasing once
// clamped to now. Each push draws its sequence number at push time, so every
// fire runs exactly where a ScheduleAt() made at the push would have run.
// Only the stream's head is in the heap; on fire the slot is re-keyed in
// place with the next entry's stored (time, seq), one sift from the root.
//
// The callback takes no argument: the owner keeps the entries' payloads in
// a queue of its own, in step with the pushes. Destroying the FifoTimer
// cancels every pending fire; from inside its own callback, only as the
// callback's last action.
class FifoTimer {
 public:
  FifoTimer(EventLoop* loop, EventLoop::Callback cb) : loop_(loop), cb_(std::move(cb)) {}
  ~FifoTimer();

  FifoTimer(const FifoTimer&) = delete;
  FifoTimer& operator=(const FifoTimer&) = delete;

  void Push(SimTime at);

  // Pushed fires that have not yet run.
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    SimTime at;
    uint64_t seq;
  };

  static void FireTrampoline(void* self);

  EventLoop* loop_;
  EventLoop::Callback cb_;
  EventHandle handle_;  // trampoline slot, allocated on first Push
  RingFifo<Entry> entries_;
};

// Repeating timer built on Timer; the simulation analogue of the paper's
// periodic tcp_info tracking thread. The callback runs every `period` until
// Stop() is called or the timer is destroyed. set_period() re-arms the
// in-flight fire: the next fire lands at (last fire or Start) + new period
// (clamped to now), and subsequent fires follow the new period.
class PeriodicTimer {
 public:
  PeriodicTimer(EventLoop* loop, TimeDelta period, EventLoop::Callback cb);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void Start();
  void Stop();
  bool running() const { return running_; }
  TimeDelta period() const { return period_; }
  void set_period(TimeDelta p);

 private:
  void Fire();

  EventLoop* loop_;
  TimeDelta period_;
  EventLoop::Callback cb_;
  Timer timer_;
  bool running_ = false;
  SimTime base_;  // last fire time (or Start time): anchor for re-arms
};

}  // namespace element

#endif  // ELEMENT_SRC_EVLOOP_EVENT_LOOP_H_
