#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
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
  engine.schedule(msec(3), [&] { order.push_back(3); });
  engine.schedule(msec(1), [&] { order.push_back(1); });
  engine.schedule(msec(2), [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), msec(3));
}

TEST(EngineTest, TiesFireInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule(msec(5), [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EngineTest, NestedScheduling) {
  Engine engine;
  std::vector<SimTime> fired;
  engine.schedule(msec(1), [&] {
    fired.push_back(engine.now());
    engine.schedule(msec(1), [&] { fired.push_back(engine.now()); });
  });
  engine.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], msec(1));
  EXPECT_EQ(fired[1], msec(2));
}

TEST(EngineTest, HorizonStopsAndAdvancesClock) {
  Engine engine;
  int fired = 0;
  engine.schedule(msec(1), [&] { ++fired; });
  engine.schedule(msec(10), [&] { ++fired; });
  engine.run(msec(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), msec(1));  // stopped at the last fired event
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, EventAtExactHorizonFires) {
  Engine engine;
  bool fired = false;
  engine.schedule(msec(5), [&] { fired = true; });
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
  EventHandle handle = engine.schedule(msec(1), [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(EngineTest, CancelAfterFireIsNoop) {
  Engine engine;
  int fired = 0;
  EventHandle handle = engine.schedule(msec(1), [&] { ++fired; });
  engine.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();
  engine.run();
  EXPECT_EQ(fired, 1);
}

TEST(EngineTest, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // must not crash
}

TEST(EngineTest, RunUntilPredicate) {
  Engine engine;
  int counter = 0;
  for (int i = 1; i <= 10; ++i) {
    engine.schedule(msec(i), [&] { ++counter; });
  }
  const bool satisfied = engine.run_until([&] { return counter == 4; });
  EXPECT_TRUE(satisfied);
  EXPECT_EQ(counter, 4);
  EXPECT_EQ(engine.now(), msec(4));
}

TEST(EngineTest, RunUntilUnsatisfiedDrainsQueue) {
  Engine engine;
  engine.schedule(msec(1), [] {});
  const bool satisfied = engine.run_until([] { return false; });
  EXPECT_FALSE(satisfied);
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, RejectsNegativeDelay) {
  Engine engine;
  EXPECT_THROW(engine.schedule(-1, [] {}), InvariantViolation);
  EXPECT_THROW(engine.schedule_detached(-1, [] {}), InvariantViolation);
}

TEST(EngineTest, DetachedEventsFireInOrderWithHandledOnes) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_detached(msec(2), [&] { order.push_back(2); });
  engine.schedule(msec(1), [&] { order.push_back(1); });
  engine.schedule_detached(msec(1), [&] { order.push_back(11); });
  engine.schedule(msec(3), [&] { order.push_back(3); });
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

TEST(EngineTest, StaleHandleCannotCancelSlotReuser) {
  // After an event fires, its cancellation slot is recycled. A stale
  // handle to the fired event must not affect the slot's next tenant.
  Engine engine;
  bool first = false;
  bool second = false;
  EventHandle stale = engine.schedule(msec(1), [&] { first = true; });
  engine.run();
  EXPECT_TRUE(first);
  EventHandle fresh = engine.schedule(msec(1), [&] { second = true; });
  stale.cancel();  // must be a no-op against the recycled slot
  EXPECT_TRUE(fresh.pending());
  EXPECT_FALSE(stale.pending());
  engine.run();
  EXPECT_TRUE(second);
}

TEST(EngineTest, NotPendingInsideOwnCallback) {
  Engine engine;
  EventHandle handle;
  bool was_pending = true;
  handle = engine.schedule(msec(1), [&] { was_pending = handle.pending(); });
  engine.run();
  EXPECT_FALSE(was_pending);
}

TEST(EngineTest, CancelledSlotIsRecycledAfterDrain) {
  // Cancelled entries release their slots as the queue pops them; a
  // long-running sim with heavy cancel traffic must not grow the slab.
  Engine engine;
  for (int round = 0; round < 100; ++round) {
    EventHandle handle = engine.schedule(msec(1), [] {});
    handle.cancel();
    engine.run();
  }
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, ReturnsEventCount) {
  Engine engine;
  for (int i = 0; i < 5; ++i) engine.schedule(msec(i + 1), [] {});
  EXPECT_EQ(engine.run(), 5);
}

TEST(EngineTest, RescheduleLaterDefersFiring) {
  Engine engine;
  std::vector<int> order;
  EventHandle moved =
      engine.schedule_tracked(msec(1), [&] { order.push_back(1); });
  engine.schedule(msec(2), [&] { order.push_back(2); });
  EXPECT_TRUE(engine.reschedule(moved, msec(3)));
  EXPECT_TRUE(moved.pending());
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(engine.now(), msec(3));
}

TEST(EngineTest, RescheduleEarlierDecreasesKey) {
  Engine engine;
  std::vector<int> order;
  EventHandle moved =
      engine.schedule_tracked(msec(5), [&] { order.push_back(5); });
  engine.schedule(msec(2), [&] { order.push_back(2); });
  EXPECT_TRUE(engine.reschedule(moved, msec(1)));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{5, 2}));
}

TEST(EngineTest, RescheduleSameInstantDropsBehindTies) {
  // A reschedule consumes a fresh sequence number even when the deadline
  // is unchanged — exactly like the cancel+push it replaces, so a
  // re-armed event fires after same-instant events scheduled before the
  // reschedule happened.
  Engine engine;
  std::vector<int> order;
  EventHandle moved =
      engine.schedule_tracked(msec(1), [&] { order.push_back(1); });
  engine.schedule(msec(1), [&] { order.push_back(2); });
  EXPECT_TRUE(engine.reschedule(moved, msec(1)));
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EngineTest, RescheduleDeadHandleFails) {
  Engine engine;
  EventHandle fired_handle = engine.schedule_tracked(msec(1), [] {});
  EventHandle cancelled_handle = engine.schedule_tracked(msec(2), [] {});
  cancelled_handle.cancel();
  engine.run();
  EXPECT_FALSE(engine.reschedule(fired_handle, engine.now() + msec(1)));
  EXPECT_FALSE(engine.reschedule(cancelled_handle, engine.now() + msec(1)));
  EventHandle inert;
  EXPECT_FALSE(engine.reschedule(inert, engine.now() + msec(1)));
}

TEST(EngineTest, CancelWinsOverDeferredReschedule) {
  Engine engine;
  bool fired = false;
  EventHandle handle = engine.schedule_tracked(msec(1), [&] { fired = true; });
  EXPECT_TRUE(engine.reschedule(handle, msec(5)));  // lazy deferral
  handle.cancel();
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(engine.empty());
}

TEST(EngineTest, RepeatedDeferralKeepsLatestDeadline) {
  Engine engine;
  SimTime fired_at = -1;
  EventHandle handle =
      engine.schedule_tracked(msec(1), [&] { fired_at = engine.now(); });
  EXPECT_TRUE(engine.reschedule(handle, msec(4)));
  EXPECT_TRUE(engine.reschedule(handle, msec(7)));
  EXPECT_TRUE(engine.reschedule(handle, msec(6)));  // earlier than deferred
  engine.run();
  EXPECT_EQ(fired_at, msec(6));
}

TEST(EngineTest, StatsCountFiresTombstonesAndDeferrals) {
  // stats() derives scheduled/peak_heap at read time, so each snapshot
  // must be taken after the activity it checks.
  Engine engine;
  EventHandle cancelled_handle = engine.schedule(msec(1), [] {});
  EventHandle deferred = engine.schedule_tracked(msec(2), [] {});
  engine.schedule(msec(3), [] {});
  EXPECT_EQ(engine.stats().scheduled, 3);
  EXPECT_EQ(engine.stats().peak_heap, 3);
  cancelled_handle.cancel();
  EXPECT_TRUE(engine.reschedule(deferred, msec(5)));
  engine.run();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.scheduled, 3);       // reschedule is not a new event
  EXPECT_EQ(stats.fired, 2);           // cancelled one never fires
  EXPECT_EQ(stats.tombstone_pops, 1);  // only the explicit cancel
  EXPECT_EQ(stats.deferred_rearms, 1);
  EXPECT_EQ(stats.reschedules, 1);
}

TEST(EngineTest, RescheduleUntrackedPendingHandleIsInvariantViolation) {
  // reschedule() requires a handle from schedule_tracked(); a pending
  // handle from plain schedule() has no back-pointer to move in place,
  // so the engine must refuse loudly rather than corrupt the heap.
  Engine engine;
  EventHandle handle = engine.schedule(msec(1), [] {});
  EXPECT_THROW(engine.reschedule(handle, msec(2)), InvariantViolation);
  handle.cancel();
  engine.run();
}

TEST(EngineTest, RescheduleEarlierLeavesNoTombstone) {
  Engine engine;
  EventHandle handle = engine.schedule_tracked(msec(5), [] {});
  EXPECT_TRUE(engine.reschedule(handle, msec(1)));
  engine.run();
  EXPECT_EQ(engine.stats().tombstone_pops, 0);
  EXPECT_EQ(engine.stats().deferred_rearms, 0);
  EXPECT_EQ(engine.stats().fired, 1);
}

TEST(EngineTest, BatchedPeerNeverOvertakesEarlierOneShot) {
  // Timers and fire-once events live in separate heaps; a batched drain
  // must still stop at a same-instant one-shot event whose sequence
  // number comes before the next timer peer's.
  Engine engine;
  const std::uint32_t domain = engine.new_batch_domain();
  std::vector<std::string> order;
  auto peer = [&](std::uint32_t payload) {
    engine.schedule_tracked_at(msec(1), (domain << 16) | payload, [&, payload] {
      order.push_back("t" + std::to_string(payload));
      int batched;
      while ((batched = engine.pop_batched_peer(domain)) >= 0) {
        order.push_back("b" + std::to_string(batched));
      }
    });
  };
  auto one_shot = [&](const std::string& name) {
    engine.schedule_at(msec(1), [&order, name] { order.push_back(name); });
  };
  peer(0);
  one_shot("x");  // seq between peer 0 and peer 1: blocks the drain
  peer(1);
  peer(2);
  one_shot("y");  // seq after every peer: peer 1's drain passes it
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"t0", "x", "t1", "b2", "y"}));
  EXPECT_EQ(engine.stats().boundaries_batched, 1);
  EXPECT_EQ(engine.stats().fired, 5);
}

TEST(EngineTest, PeekNextReportsEarliestEventOfAnyKind) {
  Engine engine;
  EXPECT_EQ(engine.peek_next(), Engine::kNoHorizon);
  EXPECT_TRUE(engine.empty());
  engine.schedule_tracked(msec(5), [] {});
  EXPECT_EQ(engine.peek_next(), msec(5));
  engine.schedule(msec(3), [] {});
  EXPECT_EQ(engine.peek_next(), msec(3));
  engine.schedule_tracked(msec(1), [] {});
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
