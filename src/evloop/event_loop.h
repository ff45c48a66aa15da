// Discrete-event simulation core: a monotonic virtual clock and the timers
// that fire on it. Everything else in this repository (links, TCP stacks,
// the ELEMENT trackers that the paper runs as threads) is driven by this loop,
// which makes runs deterministic and reproducible.
//
// The loop schedules one kind of event: a Timer or a FifoTimer (PeriodicTimer
// runs on a Timer). Each timer is itself the heap's node, as a Linux socket
// embeds its timer_list. The core is allocation-free on the steady-state path:
//   - pending fires sit in an index-addressable 4-ary min-heap whose
//     entries carry their (time, seq) key next to a pointer to the timer, so
//     sifting compares inside the heap array and touches a timer only to
//     update its back-pointer; a Cancel() removes the entry in O(log n) — no
//     tombstones, no hash lookup on fire;
//   - each timer stores its callback once, at construction, and its node
//     holds a fixed fire routine, so arming and firing never touch callback
//     storage or allocate;
//   - Timer re-arms in place (Restart re-keys its heap entry), which is what
//     the TCP RTO/delayed-ACK/pacing re-arm churn rides on. A timer fires in
//     place: it stays at the heap root while its callback runs, so a
//     Restart() from the callback is one sift down from the root, and the
//     loop pops it only if the callback left it un-armed. A timer armed
//     from idle by a callback that has not yet re-armed its own takes the
//     fired timer's root slot with one sift down, instead of a push now and
//     a pop when the callback returns;
//   - FifoTimer serves a stream of non-decreasing fire times (a link's
//     in-flight packets) from one heap entry: only the stream's head is in
//     the heap, and each fire re-keys it in place with the next entry;
//   - a per-loop FreeListArena recycles Packet payload allocations.
//
// Ordering guarantee: events fire in (time, arm order). Every Timer::Restart
// and every FifoTimer::Push draws a fresh monotonic sequence number, so
// equal-time events run in exactly the order they were (re-)armed or pushed.

#ifndef ELEMENT_SRC_EVLOOP_EVENT_LOOP_H_
#define ELEMENT_SRC_EVLOOP_EVENT_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/arena.h"
#include "src/common/ring_fifo.h"
#include "src/common/time.h"

namespace element {

class Timer;
class FifoTimer;

class EventLoop {
 public:
  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime now() const { return now_; }

  // Runs until no timer is armed.
  void Run();
  // Runs events with time <= deadline, then sets now to the deadline.
  void RunUntil(SimTime deadline);

  // Events waiting to fire. A timer whose callback is running is not
  // pending (though it sits at the heap root until the callback returns),
  // and a FifoTimer counts once however many entries it holds.
  size_t pending_events() const { return heap_.size() - (firing_ != nullptr ? 1 : 0); }
  uint64_t processed_events() const { return processed_; }

  // Introspection for tests and benchmarks: bounded-growth assertions.
  size_t heap_capacity() const { return heap_.capacity(); }
  // Peak number of Timers and FifoTimers alive at once on this loop: the
  // heap nodes it could hold.
  size_t slab_slots() const { return peak_nodes_; }

  // Per-loop arena recycling Packet payload allocations (see
  // MakePooledPayload in src/netsim/packet.h). Payloads drawn from it must
  // not outlive the loop.
  FreeListArena& payload_arena() { return payload_arena_; }

  // Heap-invariant audit (parent <= children, back-pointer consistency,
  // each entry's key equal to its node's).
  // O(n); compiled into debug builds via the periodic fire-path audit and
  // callable directly from tests.
  void AuditHeapInvariant() const;

 private:
  friend class Timer;
  friend class FifoTimer;

  static constexpr uint32_t kNotInHeap = 0xffffffffu;

  // The part of a Timer or FifoTimer that the heap sees; both derive from it
  // privately. `fire` is the timer's fixed fire routine.
  struct Node {
    explicit Node(void (*fire_fn)(Node*)) : fire(fire_fn) {}

    // The pending fire's key; its heap entry holds a copy.
    SimTime at;
    uint64_t seq = 0;  // FIFO tie-break among equal times
    uint32_t heap_index = kNotInHeap;
    void (*fire)(Node*);
  };

  // A pending fire: its key, copied from the node, and the node.
  struct HeapEntry {
    SimTime at;
    uint64_t seq;
    Node* node;
  };

  // (time, seq) lexicographic order.
  static bool Earlier(SimTime a_at, uint64_t a_seq, SimTime b_at, uint64_t b_seq) {
    if (a_at != b_at) {
      return a_at < b_at;
    }
    return a_seq < b_seq;
  }
  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    return Earlier(a.at, a.seq, b.at, b.seq);
  }

  // Copies the node's key into a new heap entry.
  void HeapPush(Node* node);
  void HeapRemove(Node* node);  // arbitrary position, O(log n)
  void HeapPopTop();
  // Move the entry {at, seq, node} from the hole at `index` towards the root
  // (up) or the leaves (down), then store it where it stops. The caller
  // passes the key in registers rather than storing the entry first, so the
  // sift never reloads it.
  void SiftUp(uint32_t index, SimTime at, uint64_t seq, Node* node);
  void SiftDown(uint32_t index, SimTime at, uint64_t seq, Node* node);

  // Timer plumbing: arming inserts a node into the heap (or re-keys it where
  // it is, or puts it in the firing node's root slot), and a fire that
  // leaves it un-armed removes it. A timer's constructor calls AddNode; its
  // destructor calls RemoveNode, which disarms the node if it is in the heap.
  void AddNode();
  void RemoveNode(Node* node);
  // Arms at `at` (clamped to now) with a fresh sequence number.
  void Arm(Node* node, SimTime at);
  // Arms with a key drawn earlier (a FifoTimer entry's).
  void ArmKeyed(Node* node, SimTime at, uint64_t seq);
  // In the heap and not the one firing.
  bool IsPending(const Node* node) const {
    return node->heap_index != kNotInHeap && node != firing_;
  }

  // Returns the node of the next fire with time <= deadline, still at the
  // heap root, or null.
  Node* NextRunnable(SimTime deadline) const;
  void RunLoop(SimTime deadline);

  SimTime now_ = SimTime::Zero();
  uint64_t next_seq_ = 1;
  uint64_t processed_ = 0;

  std::vector<HeapEntry> heap_;  // 4-ary min-heap over (at, seq)
  // The node whose callback is running, at heap_[0]; cleared when the
  // callback re-arms or destroys its timer, or arms an idle one, which takes
  // its root slot.
  Node* firing_ = nullptr;
  size_t live_nodes_ = 0;
  size_t peak_nodes_ = 0;

  FreeListArena payload_arena_;
};

// Re-armable timer with a fixed callback; each arm fires once. The timer is
// its own heap node: Restart() re-keys it in place (new deadline, fresh
// sequence number) without touching callback storage, which is what keeps the
// re-arm churn of timeouts (TCP RTO, delayed ACK, pacing) allocation-free.
// Callbacks should capture no more than `this`, so that std::function keeps
// them inline and construction allocates nothing. The heap holds the timer's
// address, so a timer is neither copied nor moved.
//
// Destroying the timer cancels any pending fire, so callbacks never outlive
// their owner (no alive-flag guards needed). Destroying a timer from inside
// its own callback is allowed only as the callback's last action. A timer
// registers with its loop when constructed, so it must not outlive the loop.
class Timer : private EventLoop::Node {
 public:
  Timer(EventLoop* loop, std::function<void()> cb);
  ~Timer();

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  // Arms (or re-arms in place) the timer to fire at `when` (>= now; earlier
  // clamps to now). Every arm draws a fresh sequence number, so the fire
  // orders after everything armed earlier for the same time.
  void Restart(SimTime when);
  void RestartAfter(TimeDelta delay) { Restart(loop_->now() + delay); }

  // Disarms a pending fire; returns true when the timer was pending.
  bool Cancel();

  // False from the moment the timer's callback starts until it re-arms.
  bool pending() const { return loop_->IsPending(this); }
  // Deadline of the pending fire; meaningful only while pending().
  SimTime deadline() const { return at; }  // lint_sim: allow(test-only) -- observer

 private:
  static void Fire(EventLoop::Node* node);

  EventLoop* loop_;
  std::function<void()> cb_;
};

// A stream of fire times served by one callback and one heap entry: the
// scheduling shape of a link's in-flight packets, which leave in the order
// they entered. Push() appends a fire; times must be non-decreasing once
// clamped to now. Each push draws its sequence number at push time, so every
// fire runs exactly where a Timer's Restart() made at the push would have run.
// Only the stream's head is in the heap; on fire the node is re-keyed in
// place with the next entry's stored (time, seq), one sift from the root.
//
// The callback takes no argument: the owner keeps the entries' payloads in
// a queue of its own, in step with the pushes. Destroying the FifoTimer
// cancels every pending fire; from inside its own callback, only as the
// callback's last action. Like a Timer, it is its own heap node: it is
// neither copied nor moved, and it must not outlive its loop.
class FifoTimer : private EventLoop::Node {
 public:
  FifoTimer(EventLoop* loop, std::function<void()> cb);
  ~FifoTimer();

  FifoTimer(const FifoTimer&) = delete;
  FifoTimer& operator=(const FifoTimer&) = delete;

  void Push(SimTime when);

 private:
  struct Entry {
    SimTime at;
    uint64_t seq;
  };

  static void Fire(EventLoop::Node* node);

  EventLoop* loop_;
  std::function<void()> cb_;
  RingFifo<Entry> entries_;
};

// Repeating timer built on Timer; the simulation analogue of the paper's
// periodic tcp_info tracking thread. The callback runs every `period` until
// Stop() is called or the timer is destroyed.
class PeriodicTimer {
 public:
  PeriodicTimer(EventLoop* loop, TimeDelta period, std::function<void()> cb);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void Start();
  void Stop();

 private:
  void Fire();

  TimeDelta period_;
  std::function<void()> cb_;
  Timer timer_;
  bool running_ = false;
};

}  // namespace element

#endif  // ELEMENT_SRC_EVLOOP_EVENT_LOOP_H_
