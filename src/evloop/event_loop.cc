#include "src/evloop/event_loop.h"

#include <utility>

#include "src/common/check.h"

namespace element {

// ---------------------------------------------------------------------------
// Slab
// ---------------------------------------------------------------------------

EventLoop::~EventLoop() = default;

uint32_t EventLoop::AllocSlot(void (*fn)(void*), void* arg) {
  if (free_head_ == kNoSlot) {
    uint32_t base = static_cast<uint32_t>(chunks_.size()) << kChunkShift;
    chunks_.push_back(std::make_unique<Record[]>(kChunkSize));
    // Thread the fresh chunk onto the freelist, lowest slot on top so ids
    // are handed out in address order.
    for (uint32_t i = kChunkSize; i > 0; --i) {
      record(base + i - 1).next_free = free_head_;
      free_head_ = base + i - 1;
    }
  }
  uint32_t slot = free_head_;
  Record& r = record(slot);
  free_head_ = r.next_free;
  r.fn = fn;
  r.arg = arg;
  return slot;
}

void EventLoop::FreeSlot(uint32_t slot) {
  Record& r = record(slot);
  ELEMENT_DCHECK(r.fn != nullptr) << "freeing free slot " << slot;
  if (slot == firing_slot_) {
    firing_slot_ = kNoSlot;
  }
  if (r.heap_index != kNotInHeap) {
    HeapRemove(slot);
  }
  r.fn = nullptr;
  r.arg = nullptr;
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
    ELEMENT_AUDIT(r.fn != nullptr)
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
// Timer plumbing
// ---------------------------------------------------------------------------

void EventLoop::Arm(uint32_t slot, SimTime at) {
  if (at < now_) {
    at = now_;
  }
  ArmKeyed(slot, at, next_seq_++);
}

void EventLoop::ArmKeyed(uint32_t slot, SimTime at, uint64_t seq) {
  Record& r = record(slot);
  ELEMENT_DCHECK(r.fn != nullptr) << "arming free slot " << slot;
  r.at = at;
  r.seq = seq;
  if (slot == firing_slot_) {
    firing_slot_ = kNoSlot;  // re-armed: the loop must not pop it
  }
  if (r.heap_index == kNotInHeap) {
    HeapPush(slot);
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

void EventLoop::Disarm(uint32_t slot) {
  ELEMENT_DCHECK(record(slot).fn != nullptr) << "disarming free slot " << slot;
  // A firing timer is not pending (Timer::Cancel returns before this).
  ELEMENT_DCHECK(slot != firing_slot_) << "disarming the firing timer " << slot;
  HeapRemove(slot);
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

uint32_t EventLoop::NextRunnable(SimTime deadline) const {
  if (heap_.empty() || heap_[0].at > deadline) {
    return kNoSlot;
  }
  return heap_[0].slot;
}

void EventLoop::RunLoop(SimTime deadline) {
  stopped_ = false;
  uint32_t slot;
  while (!stopped_ && (slot = NextRunnable(deadline)) != kNoSlot) {
    const Record& r = record(slot);
    ELEMENT_AUDIT(r.at >= now_) << "event loop time went backwards: now=" << now_.nanos()
                                << "ns event=" << r.at.nanos() << "ns seq=" << r.seq;
    now_ = r.at;
    ++processed_;
    if constexpr (kAuditsEnabled) {
      if ((processed_ & 1023) == 0) {
        AuditHeapInvariant();
      }
    }
    // The timer fires in place: its slot stays at the root while the
    // callback runs. Its key (now, seq) is the minimum, and everything armed
    // meanwhile draws a larger seq at a time >= now, so nothing sorts before
    // it. A Restart() re-keys the root (one sift down); otherwise the slot is
    // popped here, still allocated (its timer owns it). The callback may
    // destroy its timer, freeing the slot: fn and arg are read before the
    // call.
    firing_slot_ = slot;
    r.fn(r.arg);
    if (firing_slot_ == slot) {
      firing_slot_ = kNoSlot;
      ELEMENT_DCHECK(heap_[0].slot == slot) << "firing timer left the heap root";
      HeapPopTop();
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
  if (slot_ != EventLoop::kNoSlot) {
    loop_->FreeSlot(slot_);
  }
}

void Timer::Fire(void* self) {
  Timer* timer = static_cast<Timer*>(self);
  timer->pending_ = false;
  timer->cb_();
}

void Timer::Restart(SimTime at) {
  if (slot_ == EventLoop::kNoSlot) {
    slot_ = loop_->AllocSlot(&Timer::Fire, this);
  }
  loop_->Arm(slot_, at);
  pending_ = true;
  deadline_ = at < loop_->now() ? loop_->now() : at;
}

bool Timer::Cancel() {
  if (!pending_) {
    return false;
  }
  pending_ = false;
  loop_->Disarm(slot_);
  return true;
}

// ---------------------------------------------------------------------------
// FifoTimer
// ---------------------------------------------------------------------------

FifoTimer::~FifoTimer() {
  if (slot_ != EventLoop::kNoSlot) {
    loop_->FreeSlot(slot_);
  }
}

void FifoTimer::Push(SimTime at) {
  if (at < loop_->now()) {
    at = loop_->now();
  }
  ELEMENT_DCHECK(entries_.empty() || entries_.back().at <= at)
      << "FifoTimer push at " << at.nanos() << "ns before the tail at "
      << entries_.back().at.nanos() << "ns";
  // The sequence number is drawn now, as a Timer's Restart() here would.
  uint64_t seq = loop_->next_seq_++;
  entries_.push_back(Entry{at, seq});
  if (entries_.size() == 1) {
    if (slot_ == EventLoop::kNoSlot) {
      slot_ = loop_->AllocSlot(&FifoTimer::Fire, this);
    }
    loop_->ArmKeyed(slot_, at, seq);
  }
}

void FifoTimer::Fire(void* self) {
  FifoTimer* timer = static_cast<FifoTimer*>(self);
  timer->entries_.pop_front();
  if (!timer->entries_.empty()) {
    const Entry& next = timer->entries_.front();
    timer->loop_->ArmKeyed(timer->slot_, next.at, next.seq);
  }
  timer->cb_();
}

// ---------------------------------------------------------------------------
// PeriodicTimer
// ---------------------------------------------------------------------------

PeriodicTimer::PeriodicTimer(EventLoop* loop, TimeDelta period, std::function<void()> cb)
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
