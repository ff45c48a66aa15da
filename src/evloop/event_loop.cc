#include "src/evloop/event_loop.h"

#include <utility>

#include "src/common/check.h"

namespace element {

// ---------------------------------------------------------------------------
// Slab
// ---------------------------------------------------------------------------

EventLoop::~EventLoop() = default;

uint32_t EventLoop::AllocSlot() {
  if (free_head_ == EventHandle::kInvalidSlot) {
    uint32_t base = static_cast<uint32_t>(chunks_.size()) << kChunkShift;
    chunks_.push_back(std::make_unique<Record[]>(kChunkSize));
    // Thread the fresh chunk onto the freelist, lowest slot on top so ids
    // are handed out in address order.
    for (uint32_t i = kChunkSize; i > 1; --i) {
      record(base + i - 1).next_free = free_head_;
      free_head_ = base + i - 1;
    }
    return base;
  }
  uint32_t slot = free_head_;
  free_head_ = record(slot).next_free;
  return slot;
}

void EventLoop::FreeSlot(uint32_t slot) {
  Record& r = record(slot);
  ++r.generation;  // invalidates outstanding handles to this slot
  r.kind = Record::Kind::kFree;
  r.heap_index = kNotInHeap;
  r.fn = nullptr;
  r.arg = nullptr;
  r.cb = InlineCallback();
  r.next_free = free_head_;
  free_head_ = slot;
}

// ---------------------------------------------------------------------------
// 4-ary min-heap over (at, seq), with back-pointers for O(log n) removal
// ---------------------------------------------------------------------------

void EventLoop::SiftUp(uint32_t index) {
  const HeapEntry entry = heap_[index];
  while (index > 0) {
    uint32_t parent = (index - 1) >> 2;
    if (!Earlier(entry, heap_[parent])) {
      break;
    }
    heap_[index] = heap_[parent];
    record(heap_[index].slot).heap_index = index;
    index = parent;
  }
  heap_[index] = entry;
  record(entry.slot).heap_index = index;
}

void EventLoop::SiftDown(uint32_t index) {
  const HeapEntry entry = heap_[index];
  const uint32_t size = static_cast<uint32_t>(heap_.size());
  while (true) {
    uint32_t first_child = (index << 2) + 1;
    if (first_child >= size) {
      break;
    }
    uint32_t last_child = first_child + 4 <= size ? first_child + 4 : size;
    uint32_t best = first_child;
    for (uint32_t c = first_child + 1; c < last_child; ++c) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Earlier(heap_[best], entry)) {
      break;
    }
    heap_[index] = heap_[best];
    record(heap_[index].slot).heap_index = index;
    index = best;
  }
  heap_[index] = entry;
  record(entry.slot).heap_index = index;
}

void EventLoop::HeapPush(uint32_t slot) {
  const Record& r = record(slot);
  heap_.push_back(HeapEntry{r.at, r.seq, slot});
  SiftUp(static_cast<uint32_t>(heap_.size()) - 1);
}

void EventLoop::HeapRemove(uint32_t slot) {
  uint32_t index = record(slot).heap_index;
  ELEMENT_DCHECK(index != kNotInHeap && index < heap_.size() && heap_[index].slot == slot)
      << "heap back-pointer corrupt for slot " << slot;
  record(slot).heap_index = kNotInHeap;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (last.slot == slot) {
    return;
  }
  heap_[index] = last;
  record(last.slot).heap_index = index;
  // The replacement may need to move either way relative to its new parent.
  SiftUp(index);
  SiftDown(record(last.slot).heap_index);
}

void EventLoop::HeapPopTop() {
  record(heap_[0].slot).heap_index = kNotInHeap;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    record(last.slot).heap_index = 0;
    SiftDown(0);
  }
}

void EventLoop::AuditHeapInvariant() const {
  for (uint32_t i = 0; i < heap_.size(); ++i) {
    const HeapEntry& e = heap_[i];
    const Record& r = record(e.slot);
    ELEMENT_AUDIT(r.heap_index == i)
        << "heap back-pointer mismatch at index " << i << ": slot " << e.slot
        << " claims index " << r.heap_index;
    ELEMENT_AUDIT(r.kind != Record::Kind::kFree)
        << "freed slot " << e.slot << " still in heap at index " << i;
    ELEMENT_AUDIT(e.at == r.at && e.seq == r.seq)
        << "heap key out of sync at index " << i << ": entry (t=" << e.at.nanos()
        << " seq=" << e.seq << ") vs record (t=" << r.at.nanos() << " seq=" << r.seq << ")";
    if (i > 0) {
      const HeapEntry& parent = heap_[(i - 1) >> 2];
      ELEMENT_AUDIT(!Earlier(e, parent))
          << "heap order violated: child at index " << i << " (t=" << e.at.nanos()
          << " seq=" << e.seq << ") earlier than parent (t=" << parent.at.nanos()
          << " seq=" << parent.seq << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------------

EventHandle EventLoop::ScheduleAt(SimTime at, Callback cb) {
  if (at < now_) {
    at = now_;
  }
  uint32_t slot = AllocSlot();
  Record& r = record(slot);
  r.at = at;
  r.seq = next_seq_++;
  r.kind = Record::Kind::kOneShot;
  r.cb = std::move(cb);
  HeapPush(slot);
  return EventHandle{slot, r.generation};
}

EventHandle EventLoop::ScheduleAfter(TimeDelta delay, Callback cb) {
  return ScheduleAt(now_ + delay, std::move(cb));
}

bool EventLoop::Cancel(EventHandle h) {
  if (!h.IsValid() || (h.slot >> kChunkShift) >= chunks_.size()) {
    return false;
  }
  Record& r = record(h.slot);
  if (r.generation != h.generation || r.kind == Record::Kind::kFree) {
    return false;  // already fired, already cancelled, or slot reused
  }
  ELEMENT_AUDIT(r.kind == Record::Kind::kOneShot)
      << "EventLoop::Cancel on a Timer-owned slot " << h.slot
      << "; use Timer::Cancel instead";
  HeapRemove(h.slot);
  FreeSlot(h.slot);
  return true;
}

// ---------------------------------------------------------------------------
// Timer plumbing
// ---------------------------------------------------------------------------

EventHandle EventLoop::AllocTrampoline(void (*fn)(void*), void* arg) {
  uint32_t slot = AllocSlot();
  Record& r = record(slot);
  r.kind = Record::Kind::kTrampoline;
  r.fn = fn;
  r.arg = arg;
  return EventHandle{slot, r.generation};
}

void EventLoop::ArmTrampoline(EventHandle h, SimTime at) {
  if (at < now_) {
    at = now_;
  }
  ArmTrampolineKeyed(h, at, next_seq_++);  // a re-arm orders like a fresh schedule
}

void EventLoop::ArmTrampolineKeyed(EventHandle h, SimTime at, uint64_t seq) {
  Record& r = record(h.slot);
  ELEMENT_DCHECK(r.generation == h.generation && r.kind == Record::Kind::kTrampoline)
      << "stale trampoline handle " << h.slot;
  r.at = at;
  r.seq = seq;
  if (h.slot == firing_slot_) {
    firing_slot_ = EventHandle::kInvalidSlot;  // re-armed: the loop must not pop it
  }
  if (r.heap_index == kNotInHeap) {
    HeapPush(h.slot);
  } else {
    // In-place re-arm: update the entry's key, then restore heap order from
    // the slot's current position (for a firing timer, the root: one sift
    // down).
    HeapEntry& e = heap_[r.heap_index];
    e.at = r.at;
    e.seq = r.seq;
    SiftUp(r.heap_index);
    SiftDown(r.heap_index);
  }
}

bool EventLoop::DisarmTrampoline(EventHandle h) {
  Record& r = record(h.slot);
  ELEMENT_DCHECK(r.generation == h.generation && r.kind == Record::Kind::kTrampoline)
      << "stale trampoline handle " << h.slot;
  if (r.heap_index == kNotInHeap) {
    return false;
  }
  // A firing timer is not pending (Timer::Cancel returns before this).
  ELEMENT_DCHECK(h.slot != firing_slot_) << "disarming the firing timer " << h.slot;
  HeapRemove(h.slot);
  return true;
}

void EventLoop::ReleaseTrampoline(EventHandle h) {
  Record& r = record(h.slot);
  ELEMENT_DCHECK(r.generation == h.generation && r.kind == Record::Kind::kTrampoline)
      << "stale trampoline handle " << h.slot;
  if (h.slot == firing_slot_) {
    firing_slot_ = EventHandle::kInvalidSlot;
  }
  if (r.heap_index != kNotInHeap) {
    HeapRemove(h.slot);
  }
  FreeSlot(h.slot);
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

uint32_t EventLoop::NextRunnable(SimTime deadline) const {
  if (heap_.empty() || heap_[0].at > deadline) {
    return EventHandle::kInvalidSlot;
  }
  return heap_[0].slot;
}

void EventLoop::RunLoop(SimTime deadline) {
  stopped_ = false;
  uint32_t slot;
  while (!stopped_ && (slot = NextRunnable(deadline)) != EventHandle::kInvalidSlot) {
    Record& r = record(slot);
    ELEMENT_AUDIT(r.at >= now_) << "event loop time went backwards: now=" << now_.nanos()
                                << "ns event=" << r.at.nanos() << "ns seq=" << r.seq;
    now_ = r.at;
    ++processed_;
    if constexpr (kAuditsEnabled) {
      if ((processed_ & 1023) == 0) {
        AuditHeapInvariant();
      }
    }
    if (r.kind == Record::Kind::kOneShot) {
      // Move the callable out and free the slot before invoking: the
      // callback may schedule (and thereby reuse) slots, including this one.
      HeapPopTop();
      Callback cb = std::move(r.cb);
      FreeSlot(slot);
      cb();
    } else {
      // Timer fire, in place: the slot stays at the root while the callback
      // runs. Its key (now, seq) is the minimum, and everything scheduled or
      // re-armed meanwhile draws a larger seq at a time >= now, so nothing
      // sorts before it. A Restart() re-keys the root (one sift down);
      // otherwise the slot is popped here, still allocated (its Timer owns
      // it). Copy fn/arg out first — the callback may destroy the Timer,
      // releasing the slot.
      auto* fn = r.fn;
      void* arg = r.arg;
      firing_slot_ = slot;
      fn(arg);
      if (firing_slot_ == slot) {
        firing_slot_ = EventHandle::kInvalidSlot;
        ELEMENT_DCHECK(heap_[0].slot == slot) << "firing timer left the heap root";
        HeapPopTop();
      }
    }
  }
}

void EventLoop::Run() { RunLoop(SimTime::Infinite()); }

void EventLoop::RunUntil(SimTime deadline) {
  RunLoop(deadline);
  if (!stopped_ && deadline > now_ && !deadline.IsInfinite()) {
    now_ = deadline;
  }
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

Timer::~Timer() {
  if (handle_.IsValid()) {
    loop_->ReleaseTrampoline(handle_);
  }
}

void Timer::FireTrampoline(void* self) {
  Timer* timer = static_cast<Timer*>(self);
  timer->pending_ = false;
  timer->cb_();
}

void Timer::Restart(SimTime at) {
  if (!handle_.IsValid()) {
    handle_ = loop_->AllocTrampoline(&Timer::FireTrampoline, this);
  }
  loop_->ArmTrampoline(handle_, at);
  pending_ = true;
  deadline_ = at < loop_->now() ? loop_->now() : at;
}

bool Timer::Cancel() {
  if (!pending_) {
    return false;
  }
  pending_ = false;
  return loop_->DisarmTrampoline(handle_);
}

// ---------------------------------------------------------------------------
// FifoTimer
// ---------------------------------------------------------------------------

FifoTimer::~FifoTimer() {
  if (handle_.IsValid()) {
    loop_->ReleaseTrampoline(handle_);
  }
}

void FifoTimer::Push(SimTime at) {
  if (at < loop_->now()) {
    at = loop_->now();
  }
  ELEMENT_DCHECK(entries_.empty() || entries_.back().at <= at)
      << "FifoTimer push at " << at.nanos() << "ns before the tail at "
      << entries_.back().at.nanos() << "ns";
  // The sequence number is drawn now, as the ScheduleAt this replaces would.
  uint64_t seq = loop_->next_seq_++;
  entries_.push_back(Entry{at, seq});
  if (entries_.size() == 1) {
    if (!handle_.IsValid()) {
      handle_ = loop_->AllocTrampoline(&FifoTimer::FireTrampoline, this);
    }
    loop_->ArmTrampolineKeyed(handle_, at, seq);
  }
}

void FifoTimer::FireTrampoline(void* self) {
  FifoTimer* timer = static_cast<FifoTimer*>(self);
  timer->entries_.pop_front();
  if (!timer->entries_.empty()) {
    const Entry& next = timer->entries_.front();
    timer->loop_->ArmTrampolineKeyed(timer->handle_, next.at, next.seq);
  }
  timer->cb_();
}

// ---------------------------------------------------------------------------
// PeriodicTimer
// ---------------------------------------------------------------------------

PeriodicTimer::PeriodicTimer(EventLoop* loop, TimeDelta period, EventLoop::Callback cb)
    : loop_(loop), period_(period), cb_(std::move(cb)), timer_(loop, [this] { Fire(); }) {}

PeriodicTimer::~PeriodicTimer() { Stop(); }

void PeriodicTimer::Start() {
  if (running_) {
    return;
  }
  // A zero period would re-fire at the same instant forever.
  ELEMENT_CHECK(period_ > TimeDelta::Zero())
      << "PeriodicTimer period must be positive, got " << period_.nanos() << " ns";
  running_ = true;
  base_ = loop_->now();
  timer_.RestartAfter(period_);
}

void PeriodicTimer::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  timer_.Cancel();
}

void PeriodicTimer::set_period(TimeDelta p) {
  ELEMENT_CHECK(p > TimeDelta::Zero())
      << "PeriodicTimer period must be positive, got " << p.nanos() << " ns";
  period_ = p;
  if (running_ && timer_.pending()) {
    // Re-arm the in-flight fire against the same anchor: the next fire lands
    // at (last fire or Start) + new period, clamped to now by Restart().
    timer_.Restart(base_ + period_);
  }
}

void PeriodicTimer::Fire() {
  if (!running_) {
    return;
  }
  base_ = loop_->now();
  // Re-arm before invoking so the callback may Stop() or change the period.
  timer_.RestartAfter(period_);
  cb_();
}

}  // namespace element
