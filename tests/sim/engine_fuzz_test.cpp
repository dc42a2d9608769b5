// Randomized stress of the event engine: ordering, timer cancellation,
// in-place re-arming, and nested-scheduling invariants under thousands
// of random operations, including a reference-model fuzz against a
// std::multimap oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace pinsim::sim {
namespace {

class EngineFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzzTest, MonotonicTimeAndExactFireCounts) {
  Rng rng(GetParam());
  Engine engine;
  std::int64_t expected_fires = 0;
  std::vector<Timer> timers;
  SimTime last_fire = 0;
  bool out_of_order = false;

  // Seed timers; some callbacks schedule fire-once events, and a random
  // quarter of the timers is cancelled before running.
  std::int64_t scheduled = 0;
  std::function<void(int)> fire = [&](int depth) {
    if (engine.now() < last_fire) out_of_order = true;
    last_fire = engine.now();
    ++expected_fires;
    if (depth < 3 && rng.chance(0.4)) {
      const auto delay = static_cast<SimDuration>(rng.uniform_int(0, 5000));
      engine.schedule_detached(delay, [&fire, depth] { fire(depth + 1); });
      ++scheduled;
    }
  };
  timers.reserve(2000);
  for (int i = 0; i < 2000; ++i) {
    const auto when = static_cast<SimTime>(rng.uniform_int(0, 100000));
    timers.push_back(engine.make_timer([&fire] { fire(0); }));
    timers.back().arm(when);
    ++scheduled;
  }
  std::int64_t cancelled = 0;
  for (Timer& timer : timers) {
    if (rng.chance(0.25)) {
      timer.cancel();
      ++cancelled;
    }
  }
  // Each cancel removed its entry: only the armed timers are queued.
  EXPECT_EQ(engine.pending_events(),
            static_cast<std::size_t>(scheduled - cancelled));
  const std::int64_t fired = engine.run();
  EXPECT_FALSE(out_of_order);
  EXPECT_EQ(fired, expected_fires);
  // Every armed-and-not-cancelled timer fired once (nested events are
  // never cancelled, so: fired = scheduled - cancelled).
  EXPECT_EQ(fired, scheduled - cancelled);
  EXPECT_TRUE(engine.empty());
}

TEST_P(EngineFuzzTest, HorizonSplitEqualsFullRun) {
  // Running to a horizon and then to completion must fire the same
  // events in the same order as one uninterrupted run.
  auto run_collect = [&](bool split) {
    Rng rng(GetParam() * 3 + 1);
    Engine engine;
    std::vector<int> order;
    for (int i = 0; i < 500; ++i) {
      const auto delay = static_cast<SimDuration>(rng.uniform_int(0, 50000));
      engine.schedule_detached(delay, [&order, i] { order.push_back(i); });
    }
    if (split) {
      engine.run(25000);
      engine.run();
    } else {
      engine.run();
    }
    return order;
  };
  EXPECT_EQ(run_collect(false), run_collect(true));
}

TEST_P(EngineFuzzTest, RescheduleMatchesMultimapOracle) {
  // Reference model: a std::multimap keyed by (deadline, seq) where seq
  // mirrors the engine's internal sequence counter — one tick per
  // schedule_detached() and per Timer::arm(). Every callback checks, in
  // lockstep, that it is the oracle's earliest entry. Operations come
  // both from the test body and from inside timer callbacks: new timers,
  // fire-once events on a coarse grid (so they often tie), cancels, and
  // arms of armed, cancelled and fired timers. A firing timer may re-arm
  // itself and then move that arming earlier, to the same instant, or
  // later; it may also arm or cancel another timer. Timers are destroyed
  // at random too, taking their queued entries with them. A firing
  // timer's entry stays at the heap top until it re-arms (replace-top),
  // so each timer callback checks the engine's queries against the
  // oracle on entry and after each of its own arms and cancels.
  Rng rng(GetParam() * 1007 + 11);
  Engine engine;
  using Key = std::pair<SimTime, std::uint64_t>;
  using Oracle = std::multimap<Key, int>;
  Oracle oracle;
  std::map<int, Oracle::iterator> live;  // armed timers, pending events
  std::map<int, Timer> timers;
  std::vector<int> timer_ids;
  std::vector<int> fired;
  std::vector<int> expected;
  std::uint64_t seq = 0;
  int next_id = 0;

  auto random_timer = [&]() -> int {
    if (timer_ids.empty()) return -1;
    return timer_ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(timer_ids.size()) - 1))];
  };
  auto forget = [&](int id) {
    const auto it = live.find(id);
    if (it == live.end()) return;
    oracle.erase(it->second);
    live.erase(it);
  };
  auto arm = [&](int id, SimTime when) {
    timers.at(id).arm(when);
    forget(id);
    live[id] = oracle.emplace(Key{when, seq++}, id);
    EXPECT_TRUE(timers.at(id).armed());
  };
  auto cancel = [&](int id) {
    timers.at(id).cancel();
    forget(id);
    EXPECT_FALSE(timers.at(id).armed());
  };
  auto on_fire = [&](int id) {
    expected.push_back(oracle.empty() || oracle.begin()->first.first !=
                                             engine.now()
                           ? -1
                           : oracle.begin()->second);
    fired.push_back(id);
    forget(id);
  };
  // Every queued entry is live at its real key: peek_next() is the
  // oracle's earliest instant, and pending_events() counts exactly the
  // pending fire-once events plus the armed timers (a fired entry still
  // at the top is not counted).
  auto check_queries = [&] {
    EXPECT_EQ(engine.peek_next(), oracle.empty()
                                      ? Engine::kNoHorizon
                                      : oracle.begin()->first.first);
    EXPECT_EQ(engine.pending_events(), live.size());
    EXPECT_EQ(engine.empty(), live.empty());
  };
  auto add_timer = [&](SimTime when) {
    const int id = next_id++;
    timers.emplace(id, engine.make_timer([&, id] {
      on_fire(id);
      EXPECT_FALSE(timers.at(id).armed());
      check_queries();
      const std::int64_t dice = rng.uniform_int(0, 99);
      if (dice < 40) {
        arm(id, engine.now() + rng.uniform_int(0, 3) * 1000);
        check_queries();
        if (dice < 25) {
          // Earlier than, equal to, or later than the arming just made.
          arm(id, engine.now() + rng.uniform_int(0, 6) * 500);
          check_queries();
        }
      } else if (dice < 55) {
        const int other = random_timer();
        if (other >= 0) arm(other, engine.now() + rng.uniform_int(0, 4000));
        check_queries();
      } else if (dice < 65) {
        const int other = random_timer();
        if (other >= 0) cancel(other);
        check_queries();
      }
    }));
    timer_ids.push_back(id);
    arm(id, when);
  };

  for (int round = 0; round < 80; ++round) {
    const int ops = static_cast<int>(rng.uniform_int(1, 40));
    for (int op = 0; op < ops; ++op) {
      const std::int64_t dice = rng.uniform_int(0, 99);
      const SimTime now = engine.now();
      if (dice < 30 || timer_ids.empty()) {
        add_timer(now + rng.uniform_int(0, 5000));
      } else if (dice < 50) {
        const SimTime when = now + rng.uniform_int(0, 50) * 100;
        const int id = next_id++;
        engine.schedule_detached_at(when, [&, id] { on_fire(id); });
        live[id] = oracle.emplace(Key{when, seq++}, id);
      } else if (dice < 65) {
        cancel(random_timer());
      } else if (dice < 95) {
        arm(random_timer(), now + rng.uniform_int(0, 5000));
      } else {
        const int id = random_timer();
        forget(id);
        timers.erase(id);
        timer_ids.erase(std::find(timer_ids.begin(), timer_ids.end(), id));
      }
    }

    const auto horizon = static_cast<SimTime>(
        engine.now() + rng.uniform_int(0, 8000));
    check_queries();
    engine.run(horizon);
    ASSERT_EQ(fired, expected);
    // Nothing due by the horizon was left behind.
    if (!oracle.empty()) {
      EXPECT_GT(oracle.begin()->first.first, horizon);
    }
  }

  engine.run();
  EXPECT_EQ(fired, expected);
  EXPECT_TRUE(oracle.empty());
  EXPECT_TRUE(engine.empty());
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.fired, static_cast<std::int64_t>(fired.size()));
  // One sequence number per schedule and per arm, nothing else.
  EXPECT_EQ(static_cast<std::uint64_t>(stats.scheduled + stats.reschedules),
            seq);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest,
                         ::testing::Values(1u, 42u, 1234u, 987654u));

}  // namespace
}  // namespace pinsim::sim
