// ShardedEngine unit + determinism tests.
//
// The contract under test (DESIGN.md §7): shards == 1 is a strict
// pass-through; cross-shard posts are delivered in canonical
// (when, src_shard, seq) order; results are bit-identical across
// repeated runs and across every worker-thread count; lookahead
// violations trip a CHECK; stats fold to the serial totals.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace pinsim::sim {
namespace {

constexpr SimDuration kLookahead = usec(2);

ShardedEngineConfig config_for(int shards, int threads = 1) {
  ShardedEngineConfig config;
  config.shards = shards;
  config.lookahead = kLookahead;
  config.threads = threads;
  return config;
}

/// One (time, tag) observation; traces are the determinism currency.
struct Obs {
  SimTime when;
  std::string tag;
  bool operator==(const Obs& other) const {
    return when == other.when && tag == other.tag;
  }
};

TEST(ShardedEngineTest, SingleShardMatchesPlainEngineExactly) {
  auto drive = [](Engine& engine, std::vector<Obs>* trace) {
    for (int i = 0; i < 5; ++i) {
      engine.schedule_detached(usec(10 * i), [&engine, trace, i] {
        trace->push_back(Obs{engine.now(), "ev" + std::to_string(i)});
        engine.schedule_detached(usec(3), [&engine, trace, i] {
          trace->push_back(Obs{engine.now(), "fu" + std::to_string(i)});
        });
      });
    }
  };

  std::vector<Obs> plain_trace;
  Engine plain;
  drive(plain, &plain_trace);
  const std::int64_t plain_fired = plain.run();

  std::vector<Obs> sharded_trace;
  ShardedEngine sharded(config_for(1));
  drive(sharded.shard(0), &sharded_trace);
  const std::int64_t sharded_fired = sharded.run();

  EXPECT_EQ(plain_fired, sharded_fired);
  EXPECT_EQ(plain_trace, sharded_trace);
  EXPECT_EQ(plain.now(), sharded.now());
}

TEST(ShardedEngineTest, CrossShardPostsDeliverInCanonicalOrder) {
  ShardedEngine sharded(config_for(3));
  std::vector<Obs> trace;
  // Shards 1 and 2 both post to shard 0 at the SAME instant. The
  // canonical (when, src_shard, seq) order must fire src 1 before
  // src 2, and each source's posts in posting order — regardless of
  // which source's events executed first in the round.
  sharded.shard(2).schedule_detached(usec(1), [&] {
    sharded.post(2, 0, usec(9), [&] {
      trace.push_back(Obs{sharded.shard(0).now(), "s2-a"});
    });
    sharded.post(2, 0, usec(9), [&] {
      trace.push_back(Obs{sharded.shard(0).now(), "s2-b"});
    });
  });
  sharded.shard(1).schedule_detached(usec(1), [&] {
    sharded.post(1, 0, usec(9), [&] {
      trace.push_back(Obs{sharded.shard(0).now(), "s1-a"});
    });
  });
  sharded.run();

  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].tag, "s1-a");
  EXPECT_EQ(trace[1].tag, "s2-a");
  EXPECT_EQ(trace[2].tag, "s2-b");
  EXPECT_EQ(trace[0].when, usec(10));
  const ShardedEngineStats stats = sharded.stats();
  EXPECT_EQ(stats.cross_posts, 3);
  EXPECT_GE(stats.rounds, 1);
  EXPECT_GE(stats.peak_round_batch, 1);
}

TEST(ShardedEngineTest, CrossShardPostBelowLookaheadIsInvariantViolation) {
  ShardedEngine sharded(config_for(2));
  bool threw = false;
  sharded.shard(0).schedule_detached(usec(1), [&] {
    try {
      sharded.post(0, 1, kLookahead - 1, [] {});
    } catch (const InvariantViolation&) {
      threw = true;
    }
  });
  sharded.run();
  EXPECT_TRUE(threw);
}

TEST(ShardedEngineTest, RunParksEveryShardClockAtHorizon) {
  ShardedEngine sharded(config_for(2));
  sharded.shard(0).schedule_detached(usec(5), [] {});
  sharded.run(msec(1));
  EXPECT_EQ(sharded.shard(0).now(), msec(1));
  EXPECT_EQ(sharded.shard(1).now(), msec(1));
  EXPECT_EQ(sharded.now(), msec(1));
}

TEST(ShardedEngineTest, RunUntilStopsOnPredicateAtWindowBoundary) {
  ShardedEngine sharded(config_for(2));
  int count = 0;
  // A self-perpetuating ping-pong that would never drain on its own.
  std::function<void(int)> ping = [&](int src) {
    ++count;
    sharded.post(src, 1 - src, usec(10), [&ping, src] { ping(1 - src); });
  };
  sharded.shard(0).schedule_detached(usec(1), [&ping] { ping(0); });
  const bool held = sharded.run_until([&count] { return count >= 7; }, sec(1));
  EXPECT_TRUE(held);
  EXPECT_GE(count, 7);
}

/// A mesh of mutually posting shard-local timers: every shard runs a
/// local event chain and periodically posts to the next shard. Returns
/// the full observation trace plus per-shard final clocks.
std::vector<Obs> run_mesh(int shards, int threads, int* fired_out = nullptr) {
  ShardedEngine sharded(config_for(shards, threads));
  std::vector<std::vector<Obs>> traces(static_cast<std::size_t>(shards));
  std::vector<std::function<void(int)>> chain(
      static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    chain[static_cast<std::size_t>(s)] = [&, s](int step) {
      auto& trace = traces[static_cast<std::size_t>(s)];
      trace.push_back(
          Obs{sharded.shard(s).now(), "c" + std::to_string(step)});
      if (step >= 40) return;
      // Jittered local cadence seeded per shard: exercises unequal
      // event densities so windows are decided by different shards
      // over time.
      const SimDuration delay = usec(3 + ((step * 7 + s * 13) % 11));
      sharded.shard(s).schedule_detached(
          delay, [&chain, s, step] { chain[static_cast<std::size_t>(s)](step + 1); });
      if (step % 3 == 0) {
        const int dst = (s + 1) % shards;
        sharded.post(s, dst, kLookahead + usec(step % 5), [&traces, dst, s, step] {
          traces[static_cast<std::size_t>(dst)].push_back(
              Obs{0, "from" + std::to_string(s) + "@" + std::to_string(step)});
        });
      }
    };
    sharded.shard(s).schedule_detached(usec(1 + s), [&chain, s] {
      chain[static_cast<std::size_t>(s)](0);
    });
  }
  const std::int64_t fired = sharded.run(sec(1));
  if (fired_out != nullptr) {
    *fired_out = static_cast<int>(fired);
  }
  // Flatten per-shard traces in shard order (each inner trace is the
  // deterministic serial history of that shard).
  std::vector<Obs> flat;
  for (const auto& trace : traces) {
    flat.insert(flat.end(), trace.begin(), trace.end());
  }
  return flat;
}

TEST(ShardedEngineDeterminismTest, RepeatedRunsAreIdentical) {
  const std::vector<Obs> first = run_mesh(4, 1);
  const std::vector<Obs> second = run_mesh(4, 1);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(ShardedEngineDeterminismTest, ThreadCountDoesNotChangeResults) {
  int fired1 = 0;
  int fired2 = 0;
  int fired4 = 0;
  int fired0 = 0;
  const std::vector<Obs> threads1 = run_mesh(4, 1, &fired1);
  const std::vector<Obs> threads2 = run_mesh(4, 2, &fired2);
  const std::vector<Obs> threads4 = run_mesh(4, 4, &fired4);
  const std::vector<Obs> threads0 = run_mesh(4, 0, &fired0);  // one per shard
  ASSERT_FALSE(threads1.empty());
  EXPECT_EQ(threads1, threads2);
  EXPECT_EQ(threads1, threads4);
  EXPECT_EQ(threads1, threads0);
  EXPECT_EQ(fired1, fired2);
  EXPECT_EQ(fired1, fired4);
  EXPECT_EQ(fired1, fired0);
}

TEST(ShardedEngineDeterminismTest, ShardRngStreamsAreStablePerShard) {
  ShardedEngine a(config_for(4));
  ShardedEngine b(config_for(4));
  a.seed_rngs(Rng(123));
  b.seed_rngs(Rng(123));
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(a.rng(s).next_u64(), b.rng(s).next_u64()) << "shard " << s;
  }
}

TEST(ShardedEngineStatsTest, EngineStatsFoldEqualsPerShardSum) {
  ShardedEngine sharded(config_for(3));
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 10 + s; ++i) {
      sharded.shard(s).schedule_detached(usec(i), [] {});
    }
  }
  sharded.shard(0).schedule_detached(usec(1), [&sharded] {
    sharded.post(0, 2, kLookahead, [] {});
  });
  sharded.run();

  EngineStats manual;
  for (int s = 0; s < 3; ++s) {
    const EngineStats per = sharded.shard(s).stats();
    manual.scheduled += per.scheduled;
    manual.fired += per.fired;
    manual.reschedules += per.reschedules;
    manual.peak_heap += per.peak_heap;
  }
  const EngineStats folded = sharded.engine_stats();
  EXPECT_EQ(folded.scheduled, manual.scheduled);
  EXPECT_EQ(folded.fired, manual.fired);
  EXPECT_EQ(folded.peak_heap, manual.peak_heap);
  // 34 locally scheduled events + 1 delivered cross-post (the post
  // itself rides the mailbox, not the source heap).
  EXPECT_EQ(folded.fired, 35);
}

TEST(ShardedEngineStatsTest, EngineStatsFoldCoversEveryField) {
  // Every folded counter is driven to a different nonzero value per
  // shard: fire-once events, cancelled timers (scheduled, never fired)
  // and timers moved later (reschedules). The fold must match a
  // field-by-field sum.
  constexpr int kShards = 3;
  ShardedEngine sharded(config_for(kShards));
  std::vector<Timer> timers;
  for (int s = 0; s < kShards; ++s) {
    Engine& engine = sharded.shard(s);
    for (int i = 0; i < 4 + s; ++i) {
      engine.schedule_detached(usec(10 + i), [] {});
    }
    for (int i = 0; i <= s; ++i) {
      timers.push_back(engine.make_timer([] {}));
      timers.back().arm(usec(20 + i));
      timers.back().cancel();
      timers.push_back(engine.make_timer([] {}));
      timers.back().arm(usec(30 + i));
      timers.back().arm(usec(40 + i));
    }
  }
  sharded.run();

  EngineStats manual;
  for (int s = 0; s < kShards; ++s) {
    const EngineStats per = sharded.shard(s).stats();
    EXPECT_EQ(per.scheduled, 6 + 3 * s) << "shard " << s;
    EXPECT_EQ(per.fired, 5 + 2 * s) << "shard " << s;
    EXPECT_EQ(per.reschedules, 1 + s) << "shard " << s;
    manual.scheduled += per.scheduled;
    manual.fired += per.fired;
    manual.reschedules += per.reschedules;
    manual.peak_heap += per.peak_heap;
  }
  const EngineStats folded = sharded.engine_stats();
  EXPECT_EQ(folded.scheduled, manual.scheduled);
  EXPECT_EQ(folded.fired, manual.fired);
  EXPECT_EQ(folded.reschedules, manual.reschedules);
  EXPECT_EQ(folded.peak_heap, manual.peak_heap);
  // Closed forms of the pattern above, summed over shards 0..2.
  EXPECT_EQ(folded.scheduled, 6 + 9 + 12);
  EXPECT_EQ(folded.fired, 5 + 7 + 9);
  EXPECT_EQ(folded.reschedules, 1 + 2 + 3);
}

TEST(ShardedEngineStatsTest, AggregateFoldMatchesSerialTotals) {
  // The same event pattern run serially on plain Engines and sharded:
  // the process-wide aggregate (folded atomically per engine at
  // destruction) must grow by identical amounts.
  auto workload_on = [](Engine& engine, int offset) {
    for (int i = 0; i < 25; ++i) {
      engine.schedule_detached(usec(offset + i), [] {});
    }
  };

  const EngineStats before_serial = aggregate_engine_stats();
  {
    Engine a;
    Engine b;
    workload_on(a, 0);
    workload_on(b, 5);
    a.run();
    b.run();
  }
  const EngineStats after_serial = aggregate_engine_stats();

  {
    ShardedEngine sharded(config_for(2));
    workload_on(sharded.shard(0), 0);
    workload_on(sharded.shard(1), 5);
    sharded.run();
  }
  const EngineStats after_sharded = aggregate_engine_stats();

  EXPECT_EQ(after_serial.fired - before_serial.fired,
            after_sharded.fired - after_serial.fired);
  EXPECT_EQ(after_serial.scheduled - before_serial.scheduled,
            after_sharded.scheduled - after_serial.scheduled);
  EXPECT_EQ(after_serial.fired - before_serial.fired, 50);
}

TEST(ShardedEngineTest, LocalPostsBypassTheMailbox) {
  ShardedEngine sharded(config_for(2));
  int hits = 0;
  sharded.shard(0).schedule_detached(usec(1), [&] {
    sharded.post(0, 0, 0, [&hits] { ++hits; });  // below lookahead: legal
  });
  sharded.run();
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(sharded.stats().local_posts, 1);
  EXPECT_EQ(sharded.stats().cross_posts, 0);
}

}  // namespace
}  // namespace pinsim::sim
