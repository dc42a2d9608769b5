// Sharded-engine micro-benchmarks (google-benchmark).
//
// Measures the machinery DESIGN.md §7 adds on top of the solo engine:
// the conservative round loop (window scan + advance + park), the
// seq-stamped mailbox exchange, the thread fan-out, and the end-to-end
// fleet co-simulation that is the sharding win's target scenario.
// Emits BENCH_shard_latest.json from scripts/verify.sh; the committed
// BENCH_shard.json snapshot is the reference for hot-path PRs.
//
// Reading the numbers: the threaded rows pay a barrier round-trip per
// window, and windows are short, so threads=N is not N times faster.
// Measured on a 4-vCPU host, a 50-host pinned WordPress fleet run took
// 2.05 s at shards=1, 2.03 s at shards=4/threads=1 and 41.7 s at
// shards=4/threads=4 (1.6 events per round; DESIGN.md §7). Compare
// items_per_second, which normalizes by events.
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "core/sharded_fleet.hpp"
#include "hw/cost_model.hpp"
#include "hw/topology.hpp"
#include "sim/sharded_engine.hpp"
#include "util/units.hpp"
#include "virt/instance_type.hpp"
#include "virt/platform.hpp"
#include "workload/ffmpeg.hpp"

namespace {

using namespace pinsim;

constexpr SimDuration kLookahead = usec(2);

sim::ShardedEngineConfig shard_config(int shards, int threads) {
  sim::ShardedEngineConfig config;
  config.shards = shards;
  config.lookahead = kLookahead;
  config.threads = threads;
  return config;
}

/// Local timer chains on every shard, one cross-shard post per eight
/// local events: the round loop dominates, the mailbox stays warm.
void BM_ShardRoundAdvance(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  std::int64_t events = 0;
  for (auto _ : state) {
    sim::ShardedEngine sharded(shard_config(shards, 1));
    std::vector<std::function<void(int)>> chain(
        static_cast<std::size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      chain[static_cast<std::size_t>(s)] = [&sharded, &chain, s](int step) {
        if (step >= 2000) return;
        sharded.shard(s).schedule_detached(usec(3), [&chain, s, step] {
          chain[static_cast<std::size_t>(s)](step + 1);
        });
        if (step % 8 == 0) {
          sharded.post(s, (s + 1) % sharded.shards(), kLookahead, [] {});
        }
      };
      sharded.shard(s).schedule_detached(usec(1), [&chain, s] {
        chain[static_cast<std::size_t>(s)](0);
      });
    }
    events += sharded.run();
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_ShardRoundAdvance)->Arg(1)->Arg(2)->Arg(4);

/// Every delivery immediately posts onward around the shard ring: the
/// exchange path (flatten, sort, re-schedule) is the whole workload.
void BM_MailboxExchange(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  std::int64_t posts = 0;
  for (auto _ : state) {
    sim::ShardedEngine sharded(shard_config(shards, 1));
    // 32 tokens circulate the ring concurrently.
    std::function<void(int)> forward = [&sharded, &forward](int src) {
      sharded.post(src, (src + 1) % sharded.shards(), kLookahead,
                   [&forward, src, &sharded] {
                     forward((src + 1) % sharded.shards());
                   });
    };
    for (int token = 0; token < 32; ++token) {
      const int src = token % shards;
      sharded.shard(src).schedule_detached(usec(1 + token), [&forward, src] {
        forward(src);
      });
    }
    sharded.run(msec(2));
    posts += sharded.stats().cross_posts;
  }
  state.SetItemsProcessed(posts);
}
BENCHMARK(BM_MailboxExchange)->Arg(2)->Arg(4);

/// The same four-shard mesh under 1, 2, and 4 worker threads: isolates
/// what the barrier handshake costs (single-core hosts) or buys back
/// (multi-core hosts).
void BM_ShardThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::int64_t events = 0;
  for (auto _ : state) {
    sim::ShardedEngine sharded(shard_config(4, threads));
    std::vector<std::function<void(int)>> chain(4);
    for (int s = 0; s < 4; ++s) {
      chain[static_cast<std::size_t>(s)] = [&sharded, &chain, s](int step) {
        if (step >= 1000) return;
        sharded.shard(s).schedule_detached(usec(3), [&chain, s, step] {
          chain[static_cast<std::size_t>(s)](step + 1);
        });
      };
      sharded.shard(s).schedule_detached(usec(1), [&chain, s] {
        chain[static_cast<std::size_t>(s)](0);
      });
    }
    events += sharded.run();
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_ShardThreads)->Arg(1)->Arg(2)->Arg(4);

/// End to end: a four-host fleet (fig7's Vanilla CN cell on xLarge,
/// scaled-down transcode) co-simulated at (shards, threads). This is
/// the scenario the sharding work targets — per-host event streams are
/// independent apart from the heartbeat ring, so on an N-core host the
/// shards=N/threads=N row approaches a 1/N wall clock.
void BM_FleetCosim(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  workload::FfmpegConfig transcode;
  transcode.serial_seconds = 0.3;
  transcode.parallel_seconds = 1.5;
  transcode.startup_seconds = 0.1;
  transcode.source_seconds = 5.0;
  std::int64_t events = 0;
  for (auto _ : state) {
    core::ShardedFleetConfig config;
    config.hosts = 4;
    config.shards = shards;
    config.threads = threads;
    config.spec = virt::PlatformSpec{virt::PlatformKind::Container,
                                     virt::CpuMode::Vanilla,
                                     virt::instance_by_name("xLarge")};
    config.full_host = hw::Topology::small_host_16();
    workload::Ffmpeg ffmpeg(transcode);
    const core::ShardedFleetResult result =
        core::run_sharded_fleet(config, ffmpeg);
    events += result.events_fired;
    benchmark::DoNotOptimize(result.hosts.front().makespan_seconds);
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_FleetCosim)
    ->Args({1, 1})
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({4, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
