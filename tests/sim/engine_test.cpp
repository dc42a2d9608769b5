#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/check.hpp"

namespace pinsim::sim {
namespace {

TEST(EngineTest, StartsAtZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0);
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_detached(msec(3), [&] { order.push_back(3); });
  engine.schedule_detached(msec(1), [&] { order.push_back(1); });
  engine.schedule_detached(msec(2), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), msec(3));
}

TEST(EngineTest, TiesFireInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_detached(msec(5), [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EngineTest, NestedScheduling) {
  Engine engine;
  std::vector<SimTime> fired;
  engine.schedule_detached(msec(1), [&] {
    fired.push_back(engine.now());
    engine.schedule_detached(msec(1), [&] { fired.push_back(engine.now()); });
  });
  engine.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], msec(1));
  EXPECT_EQ(fired[1], msec(2));
}

TEST(EngineTest, HorizonStopsAndAdvancesClock) {
  Engine engine;
  int fired = 0;
  engine.schedule_detached(msec(1), [&] { ++fired; });
  engine.schedule_detached(msec(10), [&] { ++fired; });
  engine.run(msec(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), msec(1));  // stopped at the last fired event
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, EventAtExactHorizonFires) {
  Engine engine;
  bool fired = false;
  engine.schedule_detached(msec(5), [&] { fired = true; });
  engine.run(msec(5));
  EXPECT_TRUE(fired);
}

TEST(EngineTest, EmptyRunToHorizonAdvancesClock) {
  Engine engine;
  engine.run(msec(7));
  EXPECT_EQ(engine.now(), msec(7));
}

TEST(EngineTest, CancelPreventsFiring) {
  Engine engine;
  bool fired = false;
  Timer timer = engine.make_timer([&] { fired = true; });
  EXPECT_FALSE(timer.armed());
  timer.arm(msec(1));
  EXPECT_TRUE(timer.armed());
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(EngineTest, CancelAfterFireIsNoop) {
  Engine engine;
  int fired = 0;
  Timer timer = engine.make_timer([&] { ++fired; });
  timer.arm(msec(1));
  engine.run();
  EXPECT_FALSE(timer.armed());
  timer.cancel();
  engine.run();
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, DefaultHandleIsInert) {
  Engine engine;  // outlives every timer below
  Timer timer;
  EXPECT_FALSE(timer.armed());
  timer.cancel();  // must not crash
  EXPECT_THROW(timer.arm(0), InvariantViolation);
  // A moved-from timer is inert too; the moved-to one owns the node.
  bool fired = false;
  Timer source = engine.make_timer([&] { fired = true; });
  timer = std::move(source);
  EXPECT_FALSE(source.armed());  // NOLINT(bugprone-use-after-move)
  timer.arm(msec(1));
  engine.run();
  EXPECT_TRUE(fired);
}

TEST(EngineTest, RunUntilPredicate) {
  Engine engine;
  int counter = 0;
  for (int i = 1; i <= 10; ++i) {
    engine.schedule_detached(msec(i), [&] { ++counter; });
  }
  const bool satisfied = engine.run_until([&] { return counter == 4; });
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(counter, 4);
  EXPECT_EQ(engine.now(), msec(4));
}

TEST(EngineTest, RunUntilUnsatisfiedDrainsQueue) {
  Engine engine;
  engine.schedule_detached(msec(1), [] {});
  const bool satisfied = engine.run_until([] { return false; });
  EXPECT_FALSE(satisfied);
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, RejectsNegativeDelay) {
  Engine engine;
  EXPECT_THROW(engine.schedule_detached(-1, [] {}), InvariantViolation);
  engine.run(msec(1));
  EXPECT_THROW(engine.schedule_detached_at(0, [] {}), InvariantViolation);
  Timer timer = engine.make_timer([] {});
  EXPECT_THROW(timer.arm(0), InvariantViolation);
  EXPECT_FALSE(timer.armed());
}

TEST(EngineTest, DetachedEventsFireInOrderWithHandledOnes) {
  // Fire-once events and timers share one (when, seq) order.
  Engine engine;
  std::vector<int> order;
  Timer one = engine.make_timer([&] { order.push_back(1); });
  Timer three = engine.make_timer([&] { order.push_back(3); });
  engine.schedule_detached(msec(2), [&] { order.push_back(2); });
  one.arm(msec(1));
  engine.schedule_detached(msec(1), [&] { order.push_back(11); });
  three.arm(msec(3));
  EXPECT_EQ(engine.run(), 4);
  EXPECT_EQ(order, (std::vector<int>{1, 11, 2, 3}));
}

TEST(EngineTest, DetachedNestedScheduling) {
  Engine engine;
  int fired = 0;
  engine.schedule_detached(msec(1), [&] {
    ++fired;
    engine.schedule_detached(msec(1), [&] { ++fired; });
  });
  engine.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), msec(2));
}

TEST(EngineTest, NotPendingInsideOwnCallback) {
  // A timer is disarmed while its own callback runs, unless the callback
  // re-arms it.
  Engine engine;
  Timer timer;
  std::vector<bool> armed_inside;
  timer = engine.make_timer([&] {
    armed_inside.push_back(timer.armed());
    if (armed_inside.size() == 1) {
      timer.arm(engine.now() + msec(1));
      armed_inside.push_back(timer.armed());
    }
  });
  timer.arm(msec(1));
  engine.run();
  EXPECT_EQ(armed_inside, (std::vector<bool>{false, true, false}));
  EXPECT_EQ(engine.now(), msec(2));
}

TEST(EngineTest, CancelledSlotIsRecycledAfterDrain) {
  // A timer owns one node and at most one heap entry, so heavy
  // arm/cancel traffic grows neither the heap nor the slab, and freed
  // timers' nodes are reused.
  Engine engine;
  Timer timer = engine.make_timer([] {});
  for (int round = 0; round < 100; ++round) {
    timer.arm(engine.now() + msec(1 + round % 3));
    timer.cancel();
    timer.arm(engine.now() + msec(1));
    EXPECT_EQ(engine.pending_events(), 1u);
    if (round % 2 == 0) timer.cancel();
    engine.run();
  }
  EXPECT_TRUE(engine.empty());
  for (int round = 0; round < 100; ++round) {
    Timer scratch = engine.make_timer([] {});
    scratch.arm(engine.now() + msec(1));
  }  // each scratch timer drops its entry and frees its node
  EXPECT_TRUE(engine.empty());
  EXPECT_EQ(engine.stats().peak_heap, 2);
}

TEST(EngineTest, ReturnsEventCount) {
  Engine engine;
  for (int i = 0; i < 5; ++i) engine.schedule_detached(msec(i + 1), [] {});
  EXPECT_EQ(engine.run(), 5);
}

TEST(EngineTest, RescheduleLaterDefersFiring) {
  Engine engine;
  std::vector<int> order;
  Timer moved = engine.make_timer([&] { order.push_back(1); });
  moved.arm(msec(1));
  engine.schedule_detached(msec(2), [&] { order.push_back(2); });
  moved.arm(msec(3));
  EXPECT_TRUE(moved.armed());
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(engine.now(), msec(3));
}

TEST(EngineTest, RescheduleEarlierDecreasesKey) {
  Engine engine;
  std::vector<int> order;
  Timer moved = engine.make_timer([&] { order.push_back(5); });
  moved.arm(msec(5));
  engine.schedule_detached(msec(2), [&] { order.push_back(2); });
  moved.arm(msec(1));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{5, 2}));
}

TEST(EngineTest, RescheduleSameInstantDropsBehindTies) {
  // An arm consumes a fresh sequence number even when the deadline is
  // unchanged, so a re-armed timer fires after same-instant events
  // scheduled before the re-arm happened.
  Engine engine;
  std::vector<int> order;
  Timer moved = engine.make_timer([&] { order.push_back(1); });
  moved.arm(msec(1));
  engine.schedule_detached(msec(1), [&] { order.push_back(2); });
  moved.arm(msec(1));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EngineTest, CancelWinsOverDeferredReschedule) {
  // cancel() removes the entry at once, even after the deadline moved
  // later: the heap holds only armed timers.
  Engine engine;
  bool fired = false;
  Timer timer = engine.make_timer([&] { fired = true; });
  timer.arm(msec(1));
  timer.arm(msec(5));
  EXPECT_EQ(engine.pending_events(), 1u);
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(engine.pending_events(), 0u);
  EXPECT_EQ(engine.peek_next(), Engine::kNoHorizon);
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.stats().fired, 0);
}

TEST(EngineTest, RepeatedDeferralKeepsLatestDeadline) {
  Engine engine;
  SimTime fired_at = -1;
  Timer timer = engine.make_timer([&] { fired_at = engine.now(); });
  timer.arm(msec(1));
  timer.arm(msec(4));
  timer.arm(msec(7));
  timer.arm(msec(6));  // earlier than deferred
  engine.run();
  EXPECT_EQ(fired_at, msec(6));
}

TEST(EngineTest, StatsCountFiresAndReschedules) {
  // stats() derives scheduled/peak_heap at read time, so each snapshot
  // must be taken after the activity it checks.
  Engine engine;
  Timer cancelled = engine.make_timer([] {});
  Timer moved = engine.make_timer([] {});
  cancelled.arm(msec(1));
  moved.arm(msec(2));
  engine.schedule_detached(msec(3), [] {});
  EXPECT_EQ(engine.stats().scheduled, 3);
  EXPECT_EQ(engine.stats().peak_heap, 3);
  cancelled.cancel();
  moved.arm(msec(5));
  engine.run();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduled, 3);  // re-keying is not a new event
  EXPECT_EQ(stats.fired, 2);      // cancelled one never fires
  EXPECT_EQ(stats.reschedules, 1);
  // Arming a fired timer pushes a fresh entry: a new event again.
  moved.arm(msec(6));
  engine.run();
  EXPECT_EQ(engine.stats().scheduled, 4);
  EXPECT_EQ(engine.stats().peak_heap, 3);  // the timers keep their nodes
  // So does arming a cancelled timer: the cancel removed its entry.
  cancelled.arm(msec(7));
  EXPECT_EQ(engine.stats().scheduled, 5);
  EXPECT_EQ(engine.stats().reschedules, 1);
}

TEST(EngineTest, RescheduleEarlierLeavesNoTombstone) {
  Engine engine;
  Timer timer = engine.make_timer([] {});
  timer.arm(msec(5));
  timer.arm(msec(1));
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_EQ(engine.peek_next(), msec(1));
  engine.run();
  EXPECT_EQ(engine.stats().fired, 1);
  EXPECT_EQ(engine.stats().reschedules, 1);
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, PeekNextReportsEarliestEventOfAnyKind) {
  Engine engine;
  EXPECT_EQ(engine.peek_next(), Engine::kNoHorizon);
  EXPECT_TRUE(engine.empty());
  Timer late = engine.make_timer([] {});
  Timer early = engine.make_timer([] {});
  late.arm(msec(5));
  EXPECT_EQ(engine.peek_next(), msec(5));
  engine.schedule_detached(msec(3), [] {});
  EXPECT_EQ(engine.peek_next(), msec(3));
  early.arm(msec(1));
  EXPECT_EQ(engine.peek_next(), msec(1));
  engine.schedule_detached(msec(2), [] {});
  EXPECT_EQ(engine.pending_events(), 4u);
  EXPECT_EQ(engine.run(msec(1)), 1);
  EXPECT_EQ(engine.peek_next(), msec(2));  // the one-shot heap's top
  EXPECT_EQ(engine.run(msec(3)), 2);
  EXPECT_EQ(engine.peek_next(), msec(5));  // the timer heap's top
  EXPECT_EQ(engine.pending_events(), 1u);
  EXPECT_THROW(engine.advance_clock_to(msec(5)), InvariantViolation);
  engine.advance_clock_to(msec(4));
  EXPECT_EQ(engine.run(), 1);
  EXPECT_TRUE(engine.empty());
  EXPECT_EQ(engine.peek_next(), Engine::kNoHorizon);
}

}  // namespace
}  // namespace pinsim::sim
