// Randomized stress of the event engine: ordering, cancellation,
// in-place rescheduling, and nested-scheduling invariants under
// thousands of random operations, including a reference-model fuzz
// against a std::multimap oracle.
#include <gtest/gtest.h>

#include <cstdint>
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
  std::vector<EventHandle> handles;
  SimTime last_fire = 0;
  bool out_of_order = false;

  // Seed events; some callbacks schedule more, some cancel others.
  std::int64_t scheduled = 0;
  std::function<void(int)> fire = [&](int depth) {
    if (engine.now() < last_fire) out_of_order = true;
    last_fire = engine.now();
    ++expected_fires;
    if (depth < 3 && rng.chance(0.4)) {
      const auto delay = static_cast<SimDuration>(rng.uniform_int(0, 5000));
      engine.schedule(delay, [&fire, depth] { fire(depth + 1); });
      ++scheduled;
    }
  };
  for (int i = 0; i < 2000; ++i) {
    const auto delay = static_cast<SimDuration>(rng.uniform_int(0, 100000));
    handles.push_back(engine.schedule(delay, [&fire] { fire(0); }));
    ++scheduled;
  }
  // Cancel a random ~quarter before running.
  std::int64_t cancelled = 0;
  for (auto& handle : handles) {
    if (rng.chance(0.25)) {
      handle.cancel();
      ++cancelled;
    }
  }
  const std::int64_t fired = engine.run();
  EXPECT_FALSE(out_of_order);
  EXPECT_EQ(fired, expected_fires);
  // Every scheduled-and-not-cancelled top-level event fired (nested ones
  // are all uncancelled, so: fired = scheduled - cancelled).
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
      engine.schedule(delay, [&order, i] { order.push_back(i); });
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
  // schedule (tracked or one-shot) and per successful reschedule. The
  // engine must fire exactly the oracle's key order through any
  // interleaving of tracked schedule / one-shot schedule() and
  // schedule_detached() / cancel / reschedule-earlier /
  // reschedule-later / run. One-shot delays sit on a coarse grid so they
  // often tie with each other and with tracked deadlines.
  Rng rng(GetParam() * 1007 + 11);
  Engine engine;
  using Key = std::pair<SimTime, std::uint64_t>;
  enum class Kind { Tracked, OneShot, Detached };
  std::multimap<Key, int> oracle;
  std::map<int, std::multimap<Key, int>::iterator> live;
  std::map<int, Kind> kind;
  std::map<int, EventHandle> handles;
  std::vector<int> fired;
  std::vector<int> expected;
  std::vector<int> dead;
  std::uint64_t seq = 0;
  std::int64_t cancelled_count = 0;
  int next_id = 0;

  // A random live event whose kind passes `accept`, or -1.
  auto random_live = [&](auto accept) -> int {
    std::vector<int> candidates;
    for (const auto& entry : live) {
      if (accept(kind[entry.first])) candidates.push_back(entry.first);
    }
    if (candidates.empty()) return -1;
    return candidates[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(candidates.size()) - 1))];
  };
  auto cancellable = [](Kind k) { return k != Kind::Detached; };
  auto tracked = [](Kind k) { return k == Kind::Tracked; };

  for (int round = 0; round < 80; ++round) {
    const int ops = static_cast<int>(rng.uniform_int(1, 40));
    for (int op = 0; op < ops; ++op) {
      const std::int64_t dice = rng.uniform_int(0, 99);
      if (dice < 35 || live.empty()) {
        const auto delay = static_cast<SimDuration>(rng.uniform_int(0, 5000));
        const int id = next_id++;
        handles[id] = engine.schedule_tracked(
            delay, [&fired, id] { fired.push_back(id); });
        kind[id] = Kind::Tracked;
        live[id] = oracle.emplace(Key{engine.now() + delay, seq++}, id);
      } else if (dice < 55) {
        const auto delay =
            static_cast<SimDuration>(rng.uniform_int(0, 50) * 100);
        const int id = next_id++;
        auto fire = [&fired, id] { fired.push_back(id); };
        if (dice < 45) {
          handles[id] = engine.schedule(delay, fire);
          kind[id] = Kind::OneShot;
        } else {
          engine.schedule_detached(delay, fire);
          kind[id] = Kind::Detached;
        }
        live[id] = oracle.emplace(Key{engine.now() + delay, seq++}, id);
      } else if (dice < 65) {
        const int id = random_live(cancellable);
        if (id < 0) continue;
        handles[id].cancel();
        EXPECT_FALSE(handles[id].pending());
        oracle.erase(live[id]);
        live.erase(id);
        dead.push_back(id);
        ++cancelled_count;
        // A cancelled handle must refuse in-place rescheduling (and must
        // not consume a sequence number — the oracle would drift).
        EXPECT_FALSE(engine.reschedule(handles[id], engine.now() + 1));
      } else if (dice < 90) {
        const int id = random_live(tracked);
        if (id < 0) continue;
        const auto when = static_cast<SimTime>(
            engine.now() + rng.uniform_int(0, 5000));
        ASSERT_TRUE(engine.reschedule(handles[id], when));
        oracle.erase(live[id]);
        live[id] = oracle.emplace(Key{when, seq++}, id);
      } else if (!dead.empty()) {
        // Fired or cancelled events are gone for good.
        // Detached events never had a handle; theirs is inert.
        const int id = dead[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(dead.size()) - 1))];
        EXPECT_FALSE(engine.reschedule(handles[id], engine.now() + 1));
      }
    }

    const auto horizon = static_cast<SimTime>(
        engine.now() + rng.uniform_int(0, 8000));
    // Tombstones and deferred timers make peek_next() a lower bound.
    if (!oracle.empty()) {
      EXPECT_LE(engine.peek_next(), oracle.begin()->first.first);
    }
    EXPECT_GE(engine.pending_events(), live.size());
    engine.run(horizon);
    while (!oracle.empty() && oracle.begin()->first.first <= horizon) {
      const int id = oracle.begin()->second;
      expected.push_back(id);
      live.erase(id);
      dead.push_back(id);
      oracle.erase(oracle.begin());
    }
    ASSERT_EQ(fired, expected);
  }

  engine.run();
  for (const auto& [key, id] : oracle) expected.push_back(id);
  EXPECT_EQ(fired, expected);
  EXPECT_TRUE(engine.empty());
  // Only explicit cancels leave tombstones now; every reschedule was
  // served in place (deferred re-arm or re-key), never by a dead entry.
  EXPECT_EQ(engine.stats().tombstone_pops, cancelled_count);
  EXPECT_EQ(engine.stats().fired, static_cast<std::int64_t>(fired.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest,
                         ::testing::Values(1u, 42u, 1234u, 987654u));

}  // namespace
}  // namespace pinsim::sim
