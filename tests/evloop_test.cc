// Unit tests for the discrete-event loop and periodic timers.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/evloop/event_loop.h"

namespace element {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  Timer third(&loop, [&] { order.push_back(3); });
  Timer first(&loop, [&] { order.push_back(1); });
  Timer second(&loop, [&] { order.push_back(2); });
  third.Restart(SimTime::FromNanos(300));
  first.Restart(SimTime::FromNanos(100));
  second.Restart(SimTime::FromNanos(200));
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now().nanos(), 300);
}

TEST(EventLoopTest, FifoAmongEqualTimes) {
  // Equal times fire in arm order, not in the order the timers were made.
  EventLoop loop;
  std::vector<int> order;
  std::deque<Timer> timers;
  for (int i = 0; i < 5; ++i) {
    timers.emplace_back(&loop, [&order, i] { order.push_back(i); });
  }
  for (int i = 4; i >= 0; --i) {
    timers[static_cast<size_t>(i)].Restart(SimTime::FromNanos(50));
  }
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 1, 0}));
}

TEST(EventLoopTest, RestartAfterUsesCurrentTime) {
  EventLoop loop;
  SimTime fired;
  Timer inner(&loop, [&] { fired = loop.now(); });
  Timer outer(&loop, [&] { inner.RestartAfter(TimeDelta::FromMillis(5)); });
  outer.RestartAfter(TimeDelta::FromMillis(10));
  loop.Run();
  EXPECT_EQ(fired.nanos(), 15'000'000);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  Timer t(&loop, [&] { ran = true; });
  t.RestartAfter(TimeDelta::FromMillis(1));
  EXPECT_TRUE(t.Cancel());
  loop.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.processed_events(), 0u);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoopTest, CancelAfterFireIsStaleNoop) {
  EventLoop loop;
  int ran = 0;
  Timer t(&loop, [&] { ++ran; });
  t.RestartAfter(TimeDelta::FromMillis(1));
  loop.Run();
  EXPECT_EQ(ran, 1);
  // The timer fired: it has nothing to cancel, and the no-op leaves it
  // re-armable.
  EXPECT_FALSE(t.Cancel());
  t.RestartAfter(TimeDelta::FromMillis(1));
  loop.Run();
  EXPECT_EQ(ran, 2);
}

TEST(EventLoopTest, DoubleCancelReturnsFalse) {
  EventLoop loop;
  Timer t(&loop, [] {});
  t.RestartAfter(TimeDelta::FromMillis(1));
  EXPECT_TRUE(t.Cancel());
  EXPECT_FALSE(t.Cancel());
  loop.Run();
}

TEST(EventLoopTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  EventLoop loop;
  int count = 0;
  Timer early(&loop, [&] { ++count; });
  Timer late(&loop, [&] { ++count; });
  early.Restart(SimTime::FromNanos(100));
  late.Restart(SimTime::FromNanos(900));
  loop.RunUntil(SimTime::FromNanos(500));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now().nanos(), 500);
  loop.RunUntil(SimTime::FromNanos(1000));
  EXPECT_EQ(count, 2);
}

TEST(EventLoopTest, EventScheduledInPastRunsNow) {
  EventLoop loop;
  Timer inner(&loop, [&] { EXPECT_EQ(loop.now().nanos(), 10'000'000); });
  Timer outer(&loop, [&] {
    // Arming "in the past" clamps to now rather than going backwards.
    inner.Restart(SimTime::Zero());
  });
  outer.RestartAfter(TimeDelta::FromMillis(10));
  loop.Run();
  EXPECT_EQ(loop.processed_events(), 2u);
}

TEST(EventLoopTest, EventsCanScheduleMoreEvents) {
  // Each callback makes and arms the next timer, so the loop gains a node
  // from inside a firing callback 299 times.
  EventLoop loop;
  std::deque<Timer> chain;
  std::function<void()> arm_next = [&] {
    chain.emplace_back(&loop, [&] {
      if (chain.size() < 300) {
        arm_next();
      }
    });
    chain.back().RestartAfter(TimeDelta::FromNanos(1));
  };
  arm_next();
  loop.Run();
  EXPECT_EQ(chain.size(), 300u);
  EXPECT_EQ(loop.processed_events(), 300u);
  EXPECT_EQ(loop.now().nanos(), 300);
  EXPECT_EQ(loop.slab_slots(), 300u);  // peak live timers: the whole chain
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
}

// ---------------------------------------------------------------------------
// Timer (re-armable; each arm fires once)
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

TEST(TimerTest, RestartFromOwnCallbackRekeysInPlace) {
  // A re-arm from the callback re-keys the timer's one heap entry: the heap
  // neither grows nor reallocates.
  EventLoop loop;
  int fires = 0;
  std::vector<size_t> pending_after_rearm;
  Timer t(&loop, [&] {
    if (++fires < 5) {
      t.RestartAfter(TimeDelta::FromMillis(1));
      pending_after_rearm.push_back(loop.pending_events());
    }
  });
  t.RestartAfter(TimeDelta::FromMillis(1));
  const size_t capacity_before = loop.heap_capacity();
  loop.Run();
  EXPECT_EQ(fires, 5);
  EXPECT_EQ(pending_after_rearm, (std::vector<size_t>{1, 1, 1, 1}));
  EXPECT_EQ(loop.heap_capacity(), capacity_before);
  EXPECT_EQ(loop.slab_slots(), 1u);
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
  loop.RunUntil(loop.now() + TimeDelta::FromMillis(10));
  t.Restart(SimTime::Zero());  // in the past: clamps to now
  EXPECT_EQ(t.deadline().nanos(), 10'000'000);
  loop.Run();
  EXPECT_EQ(fired.nanos(), 10'000'000);
}

TEST(TimerTest, EqualTimeOrderFollowsArmOrder) {
  // Every Timer::Restart draws a fresh sequence number, so equal-deadline
  // timers fire in the order of their latest arm: a re-arm to the same
  // deadline moves a timer behind those armed since.
  EventLoop loop;
  std::vector<int> order;
  Timer t2(&loop, [&] { order.push_back(2); });
  Timer t1(&loop, [&] { order.push_back(1); });
  Timer t0(&loop, [&] { order.push_back(0); });
  t0.Restart(SimTime::FromNanos(100));
  t1.Restart(SimTime::FromNanos(100));
  t2.Restart(SimTime::FromNanos(100));
  t0.Restart(SimTime::FromNanos(100));
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
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
  Timer other(&loop, [] {});
  other.RestartAfter(TimeDelta::FromMillis(5));
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
  Timer other(&loop, [&] { ++fires; });
  other.RestartAfter(TimeDelta::FromMillis(1));
  loop.Run();
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(loop.pending_events(), 0u);
  loop.AuditHeapInvariant();
}

TEST(TimerTest, DestroyingPendingTimerFromEqualTimeCallback) {
  // The heap holds the timers themselves: a timer destroyed while pending,
  // from another timer's callback at the same instant, leaves the heap with
  // no entry for it and never fires. The same holds for a FifoTimer.
  EventLoop loop;
  std::vector<std::string> order;
  auto victim = std::make_unique<Timer>(&loop, [&] { order.push_back("victim"); });
  auto stream = std::make_unique<FifoTimer>(&loop, [&] { order.push_back("stream"); });
  Timer killer(&loop, [&] {
    order.push_back("killer");
    EXPECT_TRUE(victim->pending());
    victim.reset();
    stream.reset();
    loop.AuditHeapInvariant();
  });
  Timer after(&loop, [&] { order.push_back("after"); });
  const SimTime t = SimTime::FromNanos(100);
  killer.Restart(t);
  victim->Restart(t);
  stream->Push(t);
  stream->Push(t);
  after.Restart(t);
  EXPECT_EQ(loop.pending_events(), 4u);
  loop.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"killer", "after"}));
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_EQ(loop.processed_events(), 2u);
  loop.AuditHeapInvariant();
}

// ---------------------------------------------------------------------------
// Root hand-off: a timer armed from idle during a fire, before the firing
// timer re-arms, takes the fired timer's root slot
// ---------------------------------------------------------------------------

TEST(EventLoopTest, HandOffChainReusesTheFiredRoot) {
  // Each callback arms the next, idle timer and leaves its own un-armed, so
  // every fire hands its root slot to the next timer: the heap never holds
  // two entries at once (a push during the fire and a pop after it would).
  constexpr int kChain = 1000;
  EventLoop loop;
  std::vector<int> fired;
  std::deque<Timer> chain;
  for (int i = 0; i < kChain; ++i) {
    chain.emplace_back(&loop, [&, i] {
      fired.push_back(i);
      if (i + 1 < kChain) {
        chain[static_cast<size_t>(i) + 1].RestartAfter(TimeDelta::FromNanos(1));
      }
    });
  }
  chain.front().Restart(SimTime::FromNanos(1));
  loop.Run();
  ASSERT_EQ(fired.size(), static_cast<size_t>(kChain));
  for (int i = 0; i < kChain; ++i) {
    ASSERT_EQ(fired[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(loop.now().nanos(), kChain);
  EXPECT_EQ(loop.heap_capacity(), 1u);
  EXPECT_EQ(loop.pending_events(), 0u);
}

// What a firing callback does to the timer that has just taken its root.
enum class TakerAction { kRestartEarlier, kRestartLater, kCancel, kDestroy };

TEST(TimerTest, RootTakerFiresOnlyAtItsLatestKey) {
  // `first` fires at 5 and arms the idle `taker` for 50, which takes the
  // root; a `witness` is pending for 20. Whatever the callback then does to
  // the taker, it fires at its latest key or not at all.
  for (TakerAction action : {TakerAction::kRestartEarlier, TakerAction::kRestartLater,
                             TakerAction::kCancel, TakerAction::kDestroy}) {
    SCOPED_TRACE(static_cast<int>(action));
    EventLoop loop;
    std::vector<std::string> order;
    auto log = [&](const char* name) {
      order.push_back(std::string(name) + "@" + std::to_string(loop.now().nanos()));
    };
    auto taker = std::make_unique<Timer>(&loop, [&] { log("taker"); });
    Timer witness(&loop, [&] { log("witness"); });
    Timer late(&loop, [&] { log("late"); });
    Timer first(&loop, [&] {
      log("first");
      taker->Restart(SimTime::FromNanos(50));
      EXPECT_TRUE(taker->pending());
      EXPECT_EQ(taker->deadline().nanos(), 50);
      EXPECT_EQ(loop.pending_events(), 2u);  // the witness and the taker
      loop.AuditHeapInvariant();
      switch (action) {
        case TakerAction::kRestartEarlier:
          taker->Restart(SimTime::FromNanos(10));
          break;
        case TakerAction::kRestartLater:
          taker->Restart(SimTime::FromNanos(10));
          taker->Restart(SimTime::FromNanos(30));
          break;
        case TakerAction::kCancel:
          EXPECT_TRUE(taker->Cancel());
          EXPECT_FALSE(taker->pending());
          EXPECT_FALSE(taker->Cancel());
          late.Restart(SimTime::FromNanos(40));  // pushed: the root is taken
          break;
        case TakerAction::kDestroy:
          taker.reset();
          late.Restart(SimTime::FromNanos(40));
          break;
      }
      EXPECT_EQ(loop.pending_events(), 2u);
      loop.AuditHeapInvariant();
    });
    first.Restart(SimTime::FromNanos(5));
    witness.Restart(SimTime::FromNanos(20));
    loop.Run();
    std::vector<std::string> expected;
    switch (action) {
      case TakerAction::kRestartEarlier:
        expected = {"first@5", "taker@10", "witness@20"};
        break;
      case TakerAction::kRestartLater:
        expected = {"first@5", "witness@20", "taker@30"};
        break;
      case TakerAction::kCancel:
      case TakerAction::kDestroy:
        expected = {"first@5", "witness@20", "late@40"};
        break;
    }
    EXPECT_EQ(order, expected);
    EXPECT_EQ(loop.pending_events(), 0u);
    loop.AuditHeapInvariant();
  }
}

TEST(TimerTest, FiredTimerReArmedOrDestroyedAfterAnotherTookItsRoot) {
  // Once the taker holds the root, the fired timer is idle: a re-arm pushes
  // it, and destroying it leaves the heap alone.
  for (bool destroy : {false, true}) {
    SCOPED_TRACE(destroy);
    EventLoop loop;
    std::vector<std::string> order;
    auto log = [&](const char* name) {
      order.push_back(std::string(name) + "@" + std::to_string(loop.now().nanos()));
    };
    Timer taker(&loop, [&] { log("taker"); });
    Timer witness(&loop, [&] { log("witness"); });
    std::unique_ptr<Timer> first;
    first = std::make_unique<Timer>(&loop, [&] {
      log("first");
      if (loop.now().nanos() != 5) {
        return;
      }
      taker.Restart(SimTime::FromNanos(30));
      loop.AuditHeapInvariant();
      if (destroy) {
        first.reset();  // the callback's last action
        return;
      }
      first->Restart(SimTime::FromNanos(40));
      EXPECT_TRUE(taker.pending());
      EXPECT_EQ(loop.pending_events(), 3u);
      loop.AuditHeapInvariant();
    });
    first->Restart(SimTime::FromNanos(5));
    witness.Restart(SimTime::FromNanos(20));
    loop.Run();
    if (destroy) {
      EXPECT_EQ(order, (std::vector<std::string>{"first@5", "witness@20", "taker@30"}));
    } else {
      EXPECT_EQ(order,
                (std::vector<std::string>{"first@5", "witness@20", "taker@30", "first@40"}));
    }
    EXPECT_EQ(loop.pending_events(), 0u);
    loop.AuditHeapInvariant();
  }
}

TEST(TimerTest, StopFromHandOffCallbackKeepsTakerPending) {
  // A run that ends at the callback's time leaves the taker on the root it
  // took, and the next Run() fires it.
  EventLoop loop;
  std::vector<int64_t> taker_fires;
  Timer taker(&loop, [&] { taker_fires.push_back(loop.now().nanos()); });
  Timer first(&loop, [&] {
    taker.Restart(SimTime::FromNanos(30));
    EXPECT_TRUE(taker.pending());
    EXPECT_EQ(loop.pending_events(), 1u);
    loop.AuditHeapInvariant();
  });
  first.Restart(SimTime::FromNanos(5));
  loop.RunUntil(SimTime::FromNanos(5));
  EXPECT_EQ(loop.now().nanos(), 5);
  EXPECT_TRUE(taker_fires.empty());
  EXPECT_TRUE(taker.pending());
  EXPECT_FALSE(first.pending());
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.AuditHeapInvariant();
  loop.Run();
  EXPECT_EQ(taker_fires, (std::vector<int64_t>{30}));
  EXPECT_EQ(loop.pending_events(), 0u);
}

// The heap holds each timer's address: a copy or a move would leave it
// pointing at the old object.
static_assert(!std::is_copy_constructible_v<Timer> && !std::is_move_constructible_v<Timer>);
static_assert(!std::is_copy_constructible_v<FifoTimer> &&
              !std::is_move_constructible_v<FifoTimer>);
static_assert(!std::is_copy_constructible_v<PeriodicTimer> &&
              !std::is_move_constructible_v<PeriodicTimer>);

TEST(FifoTimerTest, FiresEachEntryInOrderFromOneHeapEntry) {
  EventLoop loop;
  std::vector<int64_t> fired;
  FifoTimer fifo(&loop, [&] { fired.push_back(loop.now().nanos()); });
  for (int64_t t : {10, 10, 20, 35, 35, 90}) {
    fifo.Push(SimTime::FromNanos(t));
  }
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.Run();
  EXPECT_EQ(fired, (std::vector<int64_t>{10, 10, 20, 35, 35, 90}));
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_EQ(loop.processed_events(), 6u);
}

TEST(FifoTimerTest, EqualTimeEntriesInterleaveWithSchedulesInDrawOrder) {
  // Each push draws its sequence number at push time, so equal-time FIFO
  // entries and timers armed between the pushes fire in the order they were
  // drawn.
  EventLoop loop;
  std::vector<std::string> order;
  int next = 0;
  FifoTimer fifo(&loop, [&] { order.push_back("fifo" + std::to_string(next++)); });
  Timer a(&loop, [&] { order.push_back("a"); });
  Timer b(&loop, [&] { order.push_back("b"); });
  const SimTime t = SimTime::FromNanos(100);
  fifo.Push(t);
  a.Restart(t);
  fifo.Push(t);
  fifo.Push(t);
  b.Restart(t);
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
    EXPECT_EQ(loop.pending_events(), 1u);  // three entries left, one heap entry
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
  // True O(log n) cancellation removes the heap entry immediately. A
  // tombstone design would grow the heap to a million entries here; the
  // index-addressable heap must stay at a handful.
  EventLoop loop;
  // Keep one far-future event alive so the loop has steady-state occupancy.
  Timer keeper(&loop, [] {});
  keeper.Restart(SimTime::Zero() + TimeDelta::FromSecondsInt(1'000'000));
  for (int i = 0; i < 1'000'000; ++i) {
    Timer t(&loop, [] {});
    t.RestartAfter(TimeDelta::FromSecondsInt(3600));
    ASSERT_TRUE(t.Cancel());
  }
  EXPECT_EQ(loop.pending_events(), 1u);
  EXPECT_LE(loop.heap_capacity(), 64u);
  EXPECT_EQ(loop.slab_slots(), 2u);  // the keeper and one short-lived timer
  loop.AuditHeapInvariant();
  keeper.Cancel();
}

// ---------------------------------------------------------------------------
// Property test: a seeded random operation mix against a reference model
// ---------------------------------------------------------------------------

// The model keeps every pending event as (deadline, arm order, id). Each
// Timer::Restart and each FifoTimer::Push takes the next arm number, so the
// model's order is the loop's documented (time, arm order): a FIFO push is
// modelled as a Timer armed at push time. Every callback checks that it is
// the model's earliest entry and removes it; a stale cancel must return
// false and leave the model untouched. Besides a fixed set of re-armed
// timers and FIFO streams, ad-hoc timers are made, armed once and destroyed
// when cancelled or, half the time, by their own fire, so nodes leave and
// join a full heap. Timer callbacks also restart, cancel or
// destroy their own timer while it sits at the heap root, and FIFO callbacks
// push onto their own stream. Timer and FIFO callbacks also arm another idle
// timer (and then may restart, cancel or destroy it) or push onto another
// empty stream, before or after their own action: such an arm made while
// the firing timer is still un-armed takes the fired timer's root slot.
class HeapModelHarness {
 public:
  static constexpr int kTimers = 16;
  static constexpr int kFifos = 4;
  static constexpr int kFirstAdHoc = kTimers + kFifos;

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
        ArmAdHoc(RandomTime());
      } else if (kind < 42) {
        CancelAdHoc();
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
  uint64_t handoffs() const { return handoffs_; }

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

  void ArmAdHoc(int64_t at) {
    int id = kFirstAdHoc + static_cast<int>(adhoc_.size());
    adhoc_state_.push_back(Entry{});
    Insert(&adhoc_state_.back(), id, at);
    adhoc_.push_back(std::make_unique<Timer>(&loop_, [this, id] { OnAdHocFire(id); }));
    adhoc_.back()->Restart(SimTime::FromNanos(at));
  }

  // A pending timer is cancelled and destroyed; one kept after its fire
  // must refuse the cancel.
  void CancelAdHoc() {
    if (adhoc_.empty()) {
      return;
    }
    size_t i = static_cast<size_t>(rng_.UniformInt(0, static_cast<int64_t>(adhoc_.size()) - 1));
    if (adhoc_[i] == nullptr) {
      return;
    }
    Entry& e = adhoc_state_[i];
    bool was_pending = e.pending;
    EXPECT_EQ(adhoc_[i]->Cancel(), was_pending) << "ad-hoc timer " << i;
    if (was_pending) {
      Erase(&e, kFirstAdHoc + static_cast<int>(i));
      adhoc_[i].reset();
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

  void DestroyTimer(int t) {
    Entry& e = timer_state_[static_cast<size_t>(t)];
    if (e.pending) {
      Erase(&e, t);
    }
    timers_[static_cast<size_t>(t)].reset();
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

  void OnAdHocFire(int id) {
    size_t i = static_cast<size_t>(id - kFirstAdHoc);
    CheckFire(&adhoc_state_[i], id);
    EXPECT_EQ(loop_.pending_events(), ExpectedPending()) << "inside ad-hoc timer " << id;
    if (rng_.Bernoulli(0.4)) {
      ArmAdHoc(loop_.now().nanos() + rng_.UniformInt(0, 10));
    }
    if (rng_.Bernoulli(0.5)) {
      adhoc_[i].reset();  // the callback's last action
    }
  }

  // From inside the fire of timer `self_timer` or stream `self_fifo` (the
  // other is -1): arms an idle timer other than the firing one, then may
  // restart, cancel or destroy it, or pushes onto an empty stream other than
  // the firing one. Returns whether it armed anything.
  bool ArmIdleOther(int self_timer, int self_fifo) {
    const int64_t soon = loop_.now().nanos() + rng_.UniformInt(0, 10);
    if (rng_.Bernoulli(0.3)) {
      int f = static_cast<int>(rng_.UniformInt(0, kFifos - 1));
      if (f == self_fifo || !fifo_state_[static_cast<size_t>(f)].empty()) {
        return false;
      }
      PushFifo(f, soon);
      return true;
    }
    int u = static_cast<int>(rng_.UniformInt(0, kTimers - 1));
    if (u == self_timer || timer_state_[static_cast<size_t>(u)].pending) {
      return false;
    }
    RestartTimer(u, soon);
    int64_t then = rng_.UniformInt(0, 3);
    if (then == 1) {
      RestartTimer(u, loop_.now().nanos() + rng_.UniformInt(0, 10));
    } else if (then == 2) {
      CancelTimer(u);
    } else if (then == 3) {
      DestroyTimer(u);
    }
    loop_.AuditHeapInvariant();
    return true;
  }

  // The timer sits at the heap root while this runs.
  void OnTimerFire(int t) {
    CheckFire(&timer_state_[static_cast<size_t>(t)], t);
    EXPECT_EQ(loop_.pending_events(), ExpectedPending()) << "inside timer " << t;
    Timer* timer = timers_[static_cast<size_t>(t)].get();
    const bool others_first = rng_.Bernoulli(0.5);
    // Armed before the timer's own action, while it is still un-armed: the
    // other timer or stream takes the root.
    if (others_first && ArmIdleOther(t, -1)) {
      ++handoffs_;
    }
    int64_t action = rng_.UniformInt(0, 9);
    if (action < 4) {
      RestartTimer(t, loop_.now().nanos() + rng_.UniformInt(0, 10));
    } else if (action == 4) {
      RestartTimer(t, loop_.now().nanos() + rng_.UniformInt(0, 10));
      CancelTimer(t);
    } else if (action == 5) {
      EXPECT_FALSE(timer->Cancel()) << "a firing timer is not pending";
    }
    // Actions 0-4 re-armed the timer, so an arm now is an ordinary push.
    if (!others_first && ArmIdleOther(t, -1) && action > 4) {
      ++handoffs_;
    }
    EXPECT_EQ(loop_.pending_events(), ExpectedPending()) << "inside timer " << t;
    if (action == 6) {
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
    // A stream with entries left re-armed itself before this callback.
    const bool unarmed = q.empty();
    const bool others_first = rng_.Bernoulli(0.5);
    if (others_first && unarmed && ArmIdleOther(-1, f)) {
      ++handoffs_;
    }
    const bool push_self = rng_.Bernoulli(0.3);
    if (push_self) {
      PushFifo(f, loop_.now().nanos() + rng_.UniformInt(0, 10));
    }
    if (!others_first && ArmIdleOther(-1, f) && unarmed && !push_self) {
      ++handoffs_;
    }
    EXPECT_EQ(loop_.pending_events(), ExpectedPending()) << "inside FIFO " << f;
  }

  EventLoop loop_;
  Rng rng_;
  std::vector<std::unique_ptr<Timer>> timers_;
  std::vector<Entry> timer_state_;
  std::vector<std::unique_ptr<FifoTimer>> fifos_;
  std::vector<std::deque<Entry>> fifo_state_;
  std::vector<int64_t> fifo_tail_;  // last time pushed onto each stream
  std::vector<std::unique_ptr<Timer>> adhoc_;  // null once destroyed
  std::vector<Entry> adhoc_state_;             // indexed like adhoc_
  std::set<Key> model_;
  uint64_t next_arm_ = 0;
  uint64_t fired_ = 0;
  uint64_t fifo_fired_ = 0;
  uint64_t stale_cancels_ = 0;
  uint64_t self_destroyed_ = 0;
  uint64_t handoffs_ = 0;  // timer and FIFO fires whose callback armed a node into the root
  int mismatches_ = 0;
};

TEST(EventLoopTest, RandomOperationMixMatchesReferenceModel) {
  HeapModelHarness harness(20191);
  harness.RunOps(120'000);
  EXPECT_GT(harness.fired(), 50'000u);
  EXPECT_GT(harness.fifo_fired(), 10'000u);
  EXPECT_GT(harness.stale_cancels(), 1'000u);
  EXPECT_GT(harness.self_destroyed(), 100u);
  EXPECT_GT(harness.handoffs(), 10'000u);
}

}  // namespace
}  // namespace element
