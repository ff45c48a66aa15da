#include "src/evloop/event_loop.h"

#include <utility>

#include "src/common/check.h"

namespace element {

// ---------------------------------------------------------------------------
// 4-ary min-heap over (at, seq), with back-pointers for O(log n) removal
// ---------------------------------------------------------------------------

void EventLoop::SiftUp(uint32_t index, const HeapEntry entry) {
  while (index > 0) {
    uint32_t parent = (index - 1) >> 2;
    if (!Earlier(entry, heap_[parent])) {
      break;
    }
    heap_[index] = heap_[parent];
    heap_[index].node->heap_index = index;
    index = parent;
  }
  heap_[index] = entry;
  entry.node->heap_index = index;
}

void EventLoop::SiftDown(uint32_t index, const HeapEntry entry) {
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
    heap_[index].node->heap_index = index;
    index = best;
  }
  heap_[index] = entry;
  entry.node->heap_index = index;
}

void EventLoop::HeapPush(Node* node) {
  const HeapEntry entry{node->at, node->seq, node};
  heap_.push_back(entry);
  SiftUp(static_cast<uint32_t>(heap_.size()) - 1, entry);
}

void EventLoop::HeapRemove(Node* node) {
  uint32_t index = node->heap_index;
  ELEMENT_DCHECK(index != kNotInHeap && index < heap_.size() && heap_[index].node == node)
      << "heap back-pointer corrupt for node at index " << index;
  node->heap_index = kNotInHeap;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (last.node == node) {
    return;
  }
  // The replacement may need to move either way relative to its new parent.
  SiftUp(index, last);
  SiftDown(last.node->heap_index, last);
}

void EventLoop::HeapPopTop() {
  heap_[0].node->heap_index = kNotInHeap;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0, last);
  }
}

void EventLoop::AuditHeapInvariant() const {
  for (uint32_t i = 0; i < heap_.size(); ++i) {
    const HeapEntry& e = heap_[i];
    const Node& n = *e.node;
    ELEMENT_AUDIT(n.heap_index == i)
        << "heap back-pointer mismatch at index " << i << ": node claims index " << n.heap_index;
    ELEMENT_AUDIT(e.at == n.at && e.seq == n.seq)
        << "heap key out of sync at index " << i << ": entry (t=" << e.at.nanos()
        << " seq=" << e.seq << ") vs node (t=" << n.at.nanos() << " seq=" << n.seq << ")";
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

void EventLoop::AddNode() {
  ++live_nodes_;
  if (live_nodes_ > peak_nodes_) {
    peak_nodes_ = live_nodes_;
  }
}

void EventLoop::RemoveNode(Node* node) {
  --live_nodes_;
  if (node == firing_) {
    firing_ = nullptr;
  }
  if (node->heap_index != kNotInHeap) {
    HeapRemove(node);
  }
}

void EventLoop::Arm(Node* node, SimTime at) {
  if (at < now_) {
    at = now_;
  }
  ArmKeyed(node, at, next_seq_++);
}

void EventLoop::ArmKeyed(Node* node, SimTime at, uint64_t seq) {
  node->at = at;
  node->seq = seq;
  if (node == firing_) {
    firing_ = nullptr;  // re-armed: the loop must not pop it
  }
  if (node->heap_index == kNotInHeap) {
    if (firing_ != nullptr) {
      // The firing timer has not re-armed, so this node takes its root slot:
      // one sift down now instead of a push now and a pop when the callback
      // returns. The fired timer is idle from here; a re-arm pushes it.
      firing_->heap_index = kNotInHeap;
      firing_ = nullptr;
      SiftDown(0, HeapEntry{at, seq, node});
    } else {
      HeapPush(node);
    }
  } else {
    // In-place re-arm: sift the re-keyed entry from the node's current
    // position (for a firing timer, the root: one sift down).
    const HeapEntry entry{at, seq, node};
    SiftUp(node->heap_index, entry);
    SiftDown(node->heap_index, entry);
  }
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

EventLoop::Node* EventLoop::NextRunnable(SimTime deadline) const {
  if (heap_.empty() || heap_[0].at > deadline) {
    return nullptr;
  }
  return heap_[0].node;
}

void EventLoop::RunLoop(SimTime deadline) {
  stopped_ = false;
  Node* node;
  while (!stopped_ && (node = NextRunnable(deadline)) != nullptr) {
    ELEMENT_AUDIT(node->at >= now_) << "event loop time went backwards: now=" << now_.nanos()
                                    << "ns event=" << node->at.nanos() << "ns seq=" << node->seq;
    now_ = node->at;
    ++processed_;
    if constexpr (kAuditsEnabled) {
      if ((processed_ & 1023) == 0) {
        AuditHeapInvariant();
      }
    }
    // The timer fires in place: its node stays at the root while the
    // callback runs. Its key (now, seq) is the minimum, and everything armed
    // meanwhile draws a larger seq at a time >= now, so nothing sorts before
    // it. A Restart() re-keys the root (one sift down), and the first timer
    // armed from idle before that takes the root (one sift down); otherwise
    // the node is popped here. The callback may destroy its timer, which
    // clears firing_.
    firing_ = node;
    node->fire(node);
    if (firing_ == node) {
      firing_ = nullptr;
      ELEMENT_DCHECK(heap_[0].node == node) << "firing timer left the heap root";
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

Timer::Timer(EventLoop* loop, std::function<void()> cb)
    : Node(&Timer::Fire), loop_(loop), cb_(std::move(cb)) {
  loop_->AddNode();
}

Timer::~Timer() { loop_->RemoveNode(this); }

void Timer::Fire(EventLoop::Node* node) { static_cast<Timer*>(node)->cb_(); }

void Timer::Restart(SimTime when) { loop_->Arm(this, when); }

bool Timer::Cancel() {
  // A firing timer is not pending: the loop pops it after its callback.
  if (!pending()) {
    return false;
  }
  loop_->HeapRemove(this);
  return true;
}

// ---------------------------------------------------------------------------
// FifoTimer
// ---------------------------------------------------------------------------

FifoTimer::FifoTimer(EventLoop* loop, std::function<void()> cb)
    : Node(&FifoTimer::Fire), loop_(loop), cb_(std::move(cb)) {
  loop_->AddNode();
}

FifoTimer::~FifoTimer() { loop_->RemoveNode(this); }

void FifoTimer::Push(SimTime when) {
  if (when < loop_->now()) {
    when = loop_->now();
  }
  ELEMENT_DCHECK(entries_.empty() || entries_.back().at <= when)
      << "FifoTimer push at " << when.nanos() << "ns before the tail at "
      << entries_.back().at.nanos() << "ns";
  // The sequence number is drawn now, as a Timer's Restart() here would.
  const uint64_t drawn = loop_->next_seq_++;
  entries_.push_back(Entry{when, drawn});
  if (entries_.size() == 1) {
    loop_->ArmKeyed(this, when, drawn);
  }
}

void FifoTimer::Fire(EventLoop::Node* node) {
  FifoTimer* timer = static_cast<FifoTimer*>(node);
  timer->entries_.pop_front();
  if (!timer->entries_.empty()) {
    const Entry& next = timer->entries_.front();
    timer->loop_->ArmKeyed(timer, next.at, next.seq);
  }
  timer->cb_();
}

// ---------------------------------------------------------------------------
// PeriodicTimer
// ---------------------------------------------------------------------------

PeriodicTimer::PeriodicTimer(EventLoop* loop, TimeDelta period, std::function<void()> cb)
    : period_(period), cb_(std::move(cb)), timer_(loop, [this] { Fire(); }) {}

PeriodicTimer::~PeriodicTimer() { Stop(); }

void PeriodicTimer::Start() {
  if (running_) {
    return;
  }
  // A zero period would re-fire at the same instant forever.
  ELEMENT_CHECK(period_ > TimeDelta::Zero())
      << "PeriodicTimer period must be positive, got " << period_.nanos() << " ns";
  running_ = true;
  timer_.RestartAfter(period_);
}

void PeriodicTimer::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  timer_.Cancel();
}

void PeriodicTimer::Fire() {
  if (!running_) {
    return;
  }
  // Re-arm before invoking so the callback may Stop().
  timer_.RestartAfter(period_);
  cb_();
}

}  // namespace element
