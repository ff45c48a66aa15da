// Unit tests for the discrete-event loop and periodic timers.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/evloop/event_loop.h"

namespace element {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(SimTime::FromNanos(300), [&] { order.push_back(3); });
  loop.ScheduleAt(SimTime::FromNanos(100), [&] { order.push_back(1); });
  loop.ScheduleAt(SimTime::FromNanos(200), [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().nanos(), 300);
}

TEST(EventLoopTest, FifoAmongEqualTimes) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.ScheduleAt(SimTime::FromNanos(50), [&order, i] { order.push_back(i); });
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, ScheduleAfterUsesCurrentTime) {
  EventLoop loop;
  SimTime fired;
  loop.ScheduleAfter(TimeDelta::FromMillis(10), [&] {
    loop.ScheduleAfter(TimeDelta::FromMillis(5), [&] { fired = loop.now(); });
  });
  loop.Run();
  EXPECT_EQ(fired.nanos(), 15'000'000);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  auto id = loop.ScheduleAfter(TimeDelta::FromMillis(1), [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  loop.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.processed_events(), 0u);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoopTest, CancelInvalidHandleIsNoop) {
  EventLoop loop;
  EXPECT_FALSE(loop.Cancel(EventHandle{}));                  // default handle
  EXPECT_FALSE(loop.Cancel(EventHandle{12345u, 7u}));        // out-of-range slot
  bool ran = false;
  loop.ScheduleAfter(TimeDelta::Zero(), [&] { ran = true; });
  loop.Run();
  EXPECT_TRUE(ran);
}

TEST(EventLoopTest, CancelAfterFireIsStaleNoop) {
  EventLoop loop;
  int ran = 0;
  auto id = loop.ScheduleAfter(TimeDelta::FromMillis(1), [&] { ++ran; });
  loop.Run();
  EXPECT_EQ(ran, 1);
  // The event fired; its slot was released and the generation bumped.
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoopTest, StaleHandleDoesNotCancelSlotReuser) {
  EventLoop loop;
  auto first = loop.ScheduleAfter(TimeDelta::FromMillis(1), [] {});
  EXPECT_TRUE(loop.Cancel(first));
  // The freed slot is reused by the next schedule, with a new generation.
  bool ran = false;
  auto second = loop.ScheduleAfter(TimeDelta::FromMillis(1), [&] { ran = true; });
  EXPECT_EQ(second.slot, first.slot);
  EXPECT_NE(second.generation, first.generation);
  EXPECT_FALSE(loop.Cancel(first));  // stale: must not kill the new event
  loop.Run();
  EXPECT_TRUE(ran);
}

TEST(EventLoopTest, DoubleCancelReturnsFalse) {
  EventLoop loop;
  auto id = loop.ScheduleAfter(TimeDelta::FromMillis(1), [] {});
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));
  loop.Run();
}

TEST(EventLoopTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(SimTime::FromNanos(100), [&] { ++count; });
  loop.ScheduleAt(SimTime::FromNanos(900), [&] { ++count; });
  loop.RunUntil(SimTime::FromNanos(500));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now().nanos(), 500);
  loop.RunUntil(SimTime::FromNanos(1000));
  EXPECT_EQ(count, 2);
}

TEST(EventLoopTest, EventScheduledInPastRunsNow) {
  EventLoop loop;
  loop.ScheduleAfter(TimeDelta::FromMillis(10), [&] {
    // Scheduling "in the past" clamps to now rather than going backwards.
    loop.ScheduleAt(SimTime::Zero(), [&] { EXPECT_EQ(loop.now().nanos(), 10'000'000); });
  });
  loop.Run();
}

TEST(EventLoopTest, StopHaltsProcessing) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(SimTime::FromNanos(1), [&] {
    ++count;
    loop.Stop();
  });
  loop.ScheduleAt(SimTime::FromNanos(2), [&] { ++count; });
  loop.Run();
  EXPECT_EQ(count, 1);
}

TEST(EventLoopTest, EventsCanScheduleMoreEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) {
      loop.ScheduleAfter(TimeDelta::FromNanos(1), recurse);
    }
  };
  loop.ScheduleAfter(TimeDelta::Zero(), recurse);
  loop.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(loop.processed_events(), 10u);
}

TEST(PeriodicTimerTest, FiresAtPeriod) {
  EventLoop loop;
  std::vector<int64_t> fire_times;
  PeriodicTimer timer(&loop, TimeDelta::FromMillis(10),
                      [&] { fire_times.push_back(loop.now().nanos()); });
  timer.Start();
  loop.RunUntil(SimTime::FromNanos(35'000'000));
  ASSERT_EQ(fire_times.size(), 3u);
  EXPECT_EQ(fire_times[0], 10'000'000);
  EXPECT_EQ(fire_times[1], 20'000'000);
  EXPECT_EQ(fire_times[2], 30'000'000);
}

TEST(PeriodicTimerTest, StopCeasesFiring) {
  EventLoop loop;
  int count = 0;
  PeriodicTimer timer(&loop, TimeDelta::FromMillis(1), [&] {
    if (++count == 3) {
      timer.Stop();
    }
  });
  timer.Start();
  loop.RunUntil(SimTime::FromNanos(100'000'000));
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimerTest, DoubleStartIsIdempotent) {
  EventLoop loop;
  int count = 0;
  PeriodicTimer timer(&loop, TimeDelta::FromMillis(1), [&] { ++count; });
  timer.Start();
  timer.Start();
  loop.RunUntil(SimTime::FromNanos(5'500'000));
  EXPECT_EQ(count, 5);
}

TEST(PeriodicTimerTest, DestructorCancels) {
  EventLoop loop;
  int count = 0;
  {
    PeriodicTimer timer(&loop, TimeDelta::FromMillis(1), [&] { ++count; });
    timer.Start();
  }
  loop.RunUntil(SimTime::FromNanos(10'000'000));
  EXPECT_EQ(count, 0);
}

// A zero period would re-fire at one instant forever; it fails loudly instead.
TEST(PeriodicTimerDeathTest, ZeroPeriodFails) {
  EventLoop loop;
  PeriodicTimer zero(&loop, TimeDelta::Zero(), [] {});
  EXPECT_DEATH(zero.Start(), "period must be positive, got 0 ns");
  PeriodicTimer timer(&loop, TimeDelta::FromMillis(1), [] {});
  EXPECT_DEATH(timer.set_period(TimeDelta::Zero()), "period must be positive, got 0 ns");
}

TEST(PeriodicTimerTest, CallbackMayChangePeriod) {
  EventLoop loop;
  std::vector<int64_t> times;
  PeriodicTimer timer(&loop, TimeDelta::FromMillis(10), [&] {
    times.push_back(loop.now().nanos());
    timer.set_period(TimeDelta::FromMillis(20));
  });
  timer.Start();
  loop.RunUntil(SimTime::FromNanos(60'000'000));
  // First at 10ms; set_period(20ms) re-arms the in-flight fire to
  // last-fire + 20ms, so subsequent fires land at 30ms, 50ms, ...
  ASSERT_GE(times.size(), 3u);
  EXPECT_EQ(times[0], 10'000'000);
  EXPECT_EQ(times[1], 30'000'000);
  EXPECT_EQ(times[2], 50'000'000);
}

TEST(PeriodicTimerTest, SetPeriodReArmsInFlightFire) {
  // Regression: set_period() used to leave the already-pending fire at the
  // old deadline, so shortening the period only took effect one stale period
  // later. It must re-anchor the pending fire at base + new period.
  EventLoop loop;
  std::vector<int64_t> times;
  PeriodicTimer timer(&loop, TimeDelta::FromMillis(100),
                      [&] { times.push_back(loop.now().nanos()); });
  timer.Start();
  loop.ScheduleAt(SimTime::FromNanos(5'000'000),
                  [&] { timer.set_period(TimeDelta::FromMillis(10)); });
  loop.RunUntil(SimTime::FromNanos(25'000'000));
  // Re-anchored to Start (0ms) + 10ms, then every 10ms — not 100ms.
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], 10'000'000);
  EXPECT_EQ(times[1], 20'000'000);
}

TEST(PeriodicTimerTest, SetPeriodPastDeadlineClampsToNow) {
  // Shrinking the period so far that base + period is already in the past
  // must fire promptly (clamped to now), not in the past or never.
  EventLoop loop;
  std::vector<int64_t> times;
  PeriodicTimer timer(&loop, TimeDelta::FromMillis(100),
                      [&] { times.push_back(loop.now().nanos()); });
  timer.Start();
  loop.ScheduleAt(SimTime::FromNanos(50'000'000),
                  [&] { timer.set_period(TimeDelta::FromMillis(1)); });
  loop.RunUntil(SimTime::FromNanos(52'500'000));
  ASSERT_GE(times.size(), 2u);
  EXPECT_EQ(times[0], 50'000'000);  // clamped re-arm fires immediately
  EXPECT_EQ(times[1], 51'000'000);
}

// ---------------------------------------------------------------------------
// Timer (one-shot, re-armable)
// ---------------------------------------------------------------------------

TEST(TimerTest, FiresOnceAtDeadline) {
  EventLoop loop;
  std::vector<int64_t> times;
  Timer t(&loop, [&] { times.push_back(loop.now().nanos()); });
  EXPECT_FALSE(t.pending());
  t.Restart(SimTime::FromNanos(500));
  EXPECT_TRUE(t.pending());
  EXPECT_EQ(t.deadline().nanos(), 500);
  loop.Run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 500);
  EXPECT_FALSE(t.pending());
}

TEST(TimerTest, RestartMovesDeadlineBothDirections) {
  EventLoop loop;
  std::vector<int64_t> times;
  Timer t(&loop, [&] { times.push_back(loop.now().nanos()); });
  t.Restart(SimTime::FromNanos(1000));
  t.Restart(SimTime::FromNanos(200));  // earlier
  EXPECT_EQ(t.deadline().nanos(), 200);
  loop.Run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 200);

  times.clear();
  t.Restart(loop.now() + TimeDelta::FromNanos(100));
  t.Restart(loop.now() + TimeDelta::FromNanos(900));  // later
  loop.Run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 200 + 900);
}

TEST(TimerTest, CancelPreventsFire) {
  EventLoop loop;
  bool ran = false;
  Timer t(&loop, [&] { ran = true; });
  t.RestartAfter(TimeDelta::FromMillis(1));
  EXPECT_TRUE(t.Cancel());
  EXPECT_FALSE(t.pending());
  EXPECT_FALSE(t.Cancel());  // already idle
  loop.Run();
  EXPECT_FALSE(ran);
}

TEST(TimerTest, RestartFromOwnCallbackReusesSlot) {
  EventLoop loop;
  int fires = 0;
  Timer t(&loop, [&] {
    if (++fires < 5) {
      t.RestartAfter(TimeDelta::FromMillis(1));
    }
  });
  t.RestartAfter(TimeDelta::FromMillis(1));
  size_t slots_before = loop.slab_slots();
  loop.Run();
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(loop.slab_slots(), slots_before);  // re-arm never allocates
}

TEST(TimerTest, DestructorCancelsPendingFire) {
  EventLoop loop;
  bool ran = false;
  {
    Timer t(&loop, [&] { ran = true; });
    t.RestartAfter(TimeDelta::FromMillis(1));
  }
  loop.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(TimerTest, RestartPastDeadlineClampsToNow) {
  EventLoop loop;
  SimTime fired;
  Timer t(&loop, [&] { fired = loop.now(); });
  loop.ScheduleAfter(TimeDelta::FromMillis(10), [&] {
    t.Restart(SimTime::Zero());  // in the past: clamps to now
  });
  loop.Run();
  EXPECT_EQ(fired.nanos(), 10'000'000);
}

TEST(TimerTest, EqualTimeOrderFollowsArmOrder) {
  // A Timer::Restart draws a fresh sequence number exactly like a schedule,
  // so equal-deadline events fire in arm order regardless of mechanism.
  EventLoop loop;
  std::vector<int> order;
  Timer t(&loop, [&] { order.push_back(1); });
  loop.ScheduleAt(SimTime::FromNanos(100), [&] { order.push_back(0); });
  t.Restart(SimTime::FromNanos(100));
  loop.ScheduleAt(SimTime::FromNanos(100), [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TimerTest, FiringTimerIsNotPending) {
  // A timer fires in place, at the heap root, but pending_events() does not
  // count it while its callback runs; a Restart() makes it pending again.
  EventLoop loop;
  std::vector<size_t> seen;
  Timer t(&loop, [&] {
    seen.push_back(loop.pending_events());
    if (seen.size() == 1) {
      t.RestartAfter(TimeDelta::FromMillis(1));
      seen.push_back(loop.pending_events());
    }
  });
  loop.ScheduleAfter(TimeDelta::FromMillis(5), [] {});
  t.RestartAfter(TimeDelta::FromMillis(1));
  EXPECT_EQ(loop.pending_events(), 2u);
  loop.Run();
  EXPECT_EQ(seen, (std::vector<size_t>{1, 2, 1}));
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(TimerTest, CancelAndDestroyFromOwnCallback) {
  EventLoop loop;
  int fires = 0;
  std::unique_ptr<Timer> owned;
  owned = std::make_unique<Timer>(&loop, [&] {
    ++fires;
    EXPECT_FALSE(owned->Cancel());  // firing, so not pending
    owned.reset();                  // the callback's last action
  });
  owned->RestartAfter(TimeDelta::FromMillis(1));
  loop.ScheduleAfter(TimeDelta::FromMillis(1), [&] { ++fires; });
  loop.Run();
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(loop.pending_events(), 0u);
  loop.AuditHeapInvariant();
}

TEST(FifoTimerTest, FiresEachEntryInOrderFromOneHeapEntry) {
  EventLoop loop;
  std::vector<int64_t> fired;
  FifoTimer fifo(&loop, [&] { fired.push_back(loop.now().nanos()); });
  for (int64_t t : {10, 10, 20, 35, 35, 90}) {
    fifo.Push(SimTime::FromNanos(t));
  }
  EXPECT_EQ(fifo.size(), 6u);
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.Run();
  EXPECT_EQ(fired, (std::vector<int64_t>{10, 10, 20, 35, 35, 90}));
  EXPECT_EQ(fifo.size(), 0u);
  EXPECT_EQ(loop.processed_events(), 6u);
}

TEST(FifoTimerTest, EqualTimeEntriesInterleaveWithSchedulesInDrawOrder) {
  // Each push draws its sequence number at push time, so equal-time FIFO
  // entries and one-shots scheduled between the pushes fire in the order
  // they were drawn.
  EventLoop loop;
  std::vector<std::string> order;
  int next = 0;
  FifoTimer fifo(&loop, [&] { order.push_back("fifo" + std::to_string(next++)); });
  const SimTime t = SimTime::FromNanos(100);
  fifo.Push(t);
  loop.ScheduleAt(t, [&] { order.push_back("a"); });
  fifo.Push(t);
  fifo.Push(t);
  loop.ScheduleAt(t, [&] { order.push_back("b"); });
  fifo.Push(t);
  loop.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"fifo0", "a", "fifo1", "fifo2", "b", "fifo3"}));
}

TEST(FifoTimerTest, PushFromOwnCallbackAndPastTimesClampToNow) {
  EventLoop loop;
  std::vector<int64_t> fired;
  FifoTimer* self = nullptr;
  FifoTimer fifo(&loop, [&] {
    fired.push_back(loop.now().nanos());
    if (fired.size() < 3) {
      self->Push(SimTime::Zero());  // in the past: clamps to now, fires after it
    }
  });
  self = &fifo;
  fifo.Push(SimTime::FromNanos(7));
  loop.Run();
  EXPECT_EQ(fired, (std::vector<int64_t>{7, 7, 7}));
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(FifoTimerTest, DestroyingCancelsEveryPendingEntry) {
  EventLoop loop;
  int fires = 0;
  {
    FifoTimer fifo(&loop, [&] { ++fires; });
    for (int i = 0; i < 5; ++i) {
      fifo.Push(SimTime::FromNanos(10 * (i + 1)));
    }
    loop.RunUntil(SimTime::FromNanos(25));
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(fifo.size(), 3u);
  }
  EXPECT_EQ(loop.pending_events(), 0u);
  loop.Run();
  EXPECT_EQ(fires, 2);
  loop.AuditHeapInvariant();
}

// ---------------------------------------------------------------------------
// Bounded growth under cancellation churn (no tombstones)
// ---------------------------------------------------------------------------

TEST(EventLoopTest, MillionCancelledTimersStayBounded) {
  // True O(log n) cancellation releases the heap slot and slab record
  // immediately. A tombstone design would grow the heap to a million entries
  // here; the index-addressable heap must stay at a handful.
  EventLoop loop;
  // Keep one far-future event alive so the loop has steady-state occupancy.
  Timer keeper(&loop, [] {});
  keeper.Restart(SimTime::Zero() + TimeDelta::FromSecondsInt(1'000'000));
  for (int i = 0; i < 1'000'000; ++i) {
    auto h = loop.ScheduleAfter(TimeDelta::FromSecondsInt(3600), [] {});
    ASSERT_TRUE(loop.Cancel(h));
  }
  EXPECT_EQ(loop.pending_events(), 1u);
  EXPECT_LE(loop.heap_capacity(), 64u);
  EXPECT_LE(loop.slab_slots(), 256u);  // a single slab chunk suffices
  loop.AuditHeapInvariant();
  keeper.Cancel();
}

// ---------------------------------------------------------------------------
// Property test: a seeded random operation mix against a reference model
// ---------------------------------------------------------------------------

// The model keeps every pending event as (deadline, arm order, id). Each
// ScheduleAt, each Timer::Restart and each FifoTimer::Push takes the next arm
// number, so the model's order is the loop's documented (time, arm order):
// a FIFO push is modelled as the ScheduleAt it replaces, made at push time.
// Every callback checks that it is the model's earliest entry and removes
// it; a stale cancel must return false and leave the model untouched.
// Timer callbacks also restart, cancel or destroy their own timer while it
// sits at the heap root, and FIFO callbacks push onto their own stream.
class HeapModelHarness {
 public:
  static constexpr int kTimers = 16;
  static constexpr int kFifos = 4;
  static constexpr int kFirstOneShot = kTimers + kFifos;

  explicit HeapModelHarness(uint64_t seed) : rng_(seed) {
    for (int i = 0; i < kTimers; ++i) {
      timers_.push_back(MakeTimer(i));
      timer_state_.push_back(Entry{});
    }
    for (int f = 0; f < kFifos; ++f) {
      fifos_.push_back(MakeFifo(f));
      fifo_state_.emplace_back();
      fifo_tail_.push_back(0);
    }
  }

  void RunOps(int ops) {
    for (int op = 1; op <= ops; ++op) {
      int64_t kind = rng_.UniformInt(0, 99);
      if (kind < 30) {
        Schedule(RandomTime());
      } else if (kind < 42) {
        CancelRandomHandle();
      } else if (kind < 60) {
        RestartTimer(static_cast<int>(rng_.UniformInt(0, kTimers - 1)), RandomTime());
      } else if (kind < 68) {
        CancelTimer(static_cast<int>(rng_.UniformInt(0, kTimers - 1)));
      } else if (kind < 80) {
        PushFifo(static_cast<int>(rng_.UniformInt(0, kFifos - 1)), RandomTime());
      } else if (kind < 81) {
        DestroyFifo(static_cast<int>(rng_.UniformInt(0, kFifos - 1)));
      } else {
        int64_t deadline = loop_.now().nanos() + rng_.UniformInt(0, 40);
        loop_.RunUntil(SimTime::FromNanos(deadline));
        EXPECT_TRUE(model_.empty() || std::get<0>(*model_.begin()) > deadline)
            << "runnable event left behind at op " << op;
      }
      ASSERT_EQ(loop_.pending_events(), ExpectedPending()) << "at op " << op;
      if (op % 1000 == 0) {
        loop_.AuditHeapInvariant();
      }
    }
    loop_.Run();
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(loop_.pending_events(), 0u);
    EXPECT_EQ(mismatches_, 0);
  }

  uint64_t fired() const { return fired_; }
  uint64_t fifo_fired() const { return fifo_fired_; }
  uint64_t stale_cancels() const { return stale_cancels_; }
  uint64_t self_destroyed() const { return self_destroyed_; }

 private:
  struct Entry {
    bool pending = false;
    int64_t at = 0;
    uint64_t arm = 0;
  };
  using Key = std::tuple<int64_t, uint64_t, int>;  // (deadline, arm order, id)

  std::unique_ptr<Timer> MakeTimer(int t) {
    return std::make_unique<Timer>(&loop_, [this, t] { OnTimerFire(t); });
  }
  std::unique_ptr<FifoTimer> MakeFifo(int f) {
    return std::make_unique<FifoTimer>(&loop_, [this, f] { OnFifoFire(f); });
  }

  // Deadlines cluster around now, so equal times and past times (which
  // clamp to now) are frequent.
  int64_t RandomTime() { return loop_.now().nanos() + rng_.UniformInt(-5, 30); }
  int64_t Clamp(int64_t at) const { return std::max(at, loop_.now().nanos()); }

  // A FifoTimer is one pending event however many entries it holds; the
  // firing event (timer or FIFO head) is not pending.
  size_t ExpectedPending() const {
    size_t n = model_.size();
    for (const std::deque<Entry>& q : fifo_state_) {
      if (!q.empty()) {
        n -= q.size() - 1;
      }
    }
    return n;
  }

  void Insert(Entry* e, int id, int64_t at) {
    e->pending = true;
    e->at = Clamp(at);
    e->arm = next_arm_++;
    model_.insert(Key{e->at, e->arm, id});
  }
  void Erase(Entry* e, int id) {
    model_.erase(Key{e->at, e->arm, id});
    e->pending = false;
  }

  void Schedule(int64_t at) {
    int id = kFirstOneShot + static_cast<int>(one_shots_.size());
    one_shots_.push_back(Entry{});
    Insert(&one_shots_.back(), id, at);
    handles_.push_back(loop_.ScheduleAt(SimTime::FromNanos(at), [this, id] { OnOneShotFire(id); }));
  }

  void CancelRandomHandle() {
    if (handles_.empty()) {
      return;
    }
    size_t i = static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(handles_.size()) - 1));
    Entry& e = one_shots_[i];
    bool was_pending = e.pending;
    EXPECT_EQ(loop_.Cancel(handles_[i]), was_pending) << "one-shot " << i;
    if (was_pending) {
      Erase(&e, kFirstOneShot + static_cast<int>(i));
    } else {
      ++stale_cancels_;
    }
  }

  void RestartTimer(int t, int64_t at) {
    Entry& e = timer_state_[static_cast<size_t>(t)];
    if (timers_[static_cast<size_t>(t)] == nullptr) {
      timers_[static_cast<size_t>(t)] = MakeTimer(t);  // destroyed by its own callback
    }
    if (e.pending) {
      Erase(&e, t);
    }
    Insert(&e, t, at);
    timers_[static_cast<size_t>(t)]->Restart(SimTime::FromNanos(at));
  }

  void CancelTimer(int t) {
    Entry& e = timer_state_[static_cast<size_t>(t)];
    if (timers_[static_cast<size_t>(t)] == nullptr) {
      return;
    }
    EXPECT_EQ(timers_[static_cast<size_t>(t)]->Cancel(), e.pending) << "timer " << t;
    if (e.pending) {
      Erase(&e, t);
    }
  }

  // Times pushed onto one stream must not decrease.
  void PushFifo(int f, int64_t at) {
    int64_t& tail = fifo_tail_[static_cast<size_t>(f)];
    at = std::max(Clamp(at), tail);
    tail = at;
    std::deque<Entry>& q = fifo_state_[static_cast<size_t>(f)];
    q.emplace_back();
    Insert(&q.back(), kTimers + f, at);
    fifos_[static_cast<size_t>(f)]->Push(SimTime::FromNanos(at));
  }

  void DestroyFifo(int f) {
    for (Entry& e : fifo_state_[static_cast<size_t>(f)]) {
      Erase(&e, kTimers + f);
    }
    fifo_state_[static_cast<size_t>(f)].clear();
    fifos_[static_cast<size_t>(f)] = MakeFifo(f);  // the old stream's fires are cancelled
  }

  // Checks that `e` (event `id`) is the model's earliest entry, then
  // removes it from the model.
  void CheckFire(Entry* e, int id) {
    ++fired_;
    Key expected = model_.empty() ? Key{-1, 0, -1} : *model_.begin();
    Key actual{loop_.now().nanos(), e->arm, id};
    if (!e->pending || expected != actual) {
      if (mismatches_++ == 0) {
        ADD_FAILURE() << "event " << id << " fired at t=" << loop_.now().nanos()
                      << " but the model expected event " << std::get<2>(expected) << " at t="
                      << std::get<0>(expected);
      }
    }
    if (e->pending) {
      Erase(e, id);
    }
  }

  void OnOneShotFire(int id) {
    CheckFire(&one_shots_[static_cast<size_t>(id - kFirstOneShot)], id);
    EXPECT_EQ(loop_.pending_events(), ExpectedPending()) << "inside one-shot " << id;
    if (rng_.Bernoulli(0.4)) {
      Schedule(loop_.now().nanos() + rng_.UniformInt(0, 10));
    }
  }

  // The timer sits at the heap root while this runs.
  void OnTimerFire(int t) {
    CheckFire(&timer_state_[static_cast<size_t>(t)], t);
    EXPECT_EQ(loop_.pending_events(), ExpectedPending()) << "inside timer " << t;
    Timer* timer = timers_[static_cast<size_t>(t)].get();
    int64_t action = rng_.UniformInt(0, 9);
    if (action < 4) {
      RestartTimer(t, loop_.now().nanos() + rng_.UniformInt(0, 10));
    } else if (action == 4) {
      RestartTimer(t, loop_.now().nanos() + rng_.UniformInt(0, 10));
      CancelTimer(t);
    } else if (action == 5) {
      EXPECT_FALSE(timer->Cancel()) << "a firing timer is not pending";
    } else if (action == 6) {
      ++self_destroyed_;
      timers_[static_cast<size_t>(t)].reset();  // the callback's last action
    }
  }

  void OnFifoFire(int f) {
    ++fifo_fired_;
    std::deque<Entry>& q = fifo_state_[static_cast<size_t>(f)];
    if (q.empty()) {
      if (mismatches_++ == 0) {
        ADD_FAILURE() << "FIFO " << f << " fired with no entry pending";
      }
      return;
    }
    CheckFire(&q.front(), kTimers + f);
    q.pop_front();
    EXPECT_EQ(loop_.pending_events(), ExpectedPending()) << "inside FIFO " << f;
    if (rng_.Bernoulli(0.3)) {
      PushFifo(f, loop_.now().nanos() + rng_.UniformInt(0, 10));
    }
  }

  EventLoop loop_;
  Rng rng_;
  std::vector<std::unique_ptr<Timer>> timers_;
  std::vector<Entry> timer_state_;
  std::vector<std::unique_ptr<FifoTimer>> fifos_;
  std::vector<std::deque<Entry>> fifo_state_;
  std::vector<int64_t> fifo_tail_;  // last time pushed onto each stream
  std::vector<Entry> one_shots_;  // indexed like handles_
  std::vector<EventHandle> handles_;
  std::set<Key> model_;
  uint64_t next_arm_ = 0;
  uint64_t fired_ = 0;
  uint64_t fifo_fired_ = 0;
  uint64_t stale_cancels_ = 0;
  uint64_t self_destroyed_ = 0;
  int mismatches_ = 0;
};

TEST(EventLoopTest, RandomOperationMixMatchesReferenceModel) {
  HeapModelHarness harness(20191);
  harness.RunOps(120'000);
  EXPECT_GT(harness.fired(), 50'000u);
  EXPECT_GT(harness.fifo_fired(), 10'000u);
  EXPECT_GT(harness.stale_cancels(), 1'000u);
  EXPECT_GT(harness.self_destroyed(), 100u);
}

// ---------------------------------------------------------------------------
// InlineCallback storage
// ---------------------------------------------------------------------------

TEST(InlineCallbackTest, SmallCapturesStayInline) {
  int a = 0;
  InlineCallback small([&a] { ++a; });
  EXPECT_TRUE(small.is_inline());
  small();
  EXPECT_EQ(a, 1);

  struct Big {
    char pad[96];
  } big{};
  int b = 0;
  InlineCallback large([big, &b] {
    (void)big;
    ++b;
  });
  EXPECT_FALSE(large.is_inline());
  large();
  EXPECT_EQ(b, 1);
}

TEST(InlineCallbackTest, MoveTransfersOwnership) {
  int count = 0;
  InlineCallback cb([&count] { ++count; });
  InlineCallback moved(std::move(cb));
  EXPECT_FALSE(static_cast<bool>(cb));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(moved));
  moved();
  EXPECT_EQ(count, 1);
  InlineCallback assigned;
  assigned = std::move(moved);
  assigned();
  EXPECT_EQ(count, 2);
}

}  // namespace
}  // namespace element
