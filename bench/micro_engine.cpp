// Engine and substrate micro-benchmarks (google-benchmark).
//
// Measures the raw throughput of the building blocks: event scheduling,
// RNG draws, scheduler dispatch cycles, cgroup charging, and a full
// platform construction — so regressions in simulation speed are caught
// before they make the figure benches crawl.
#include <benchmark/benchmark.h>

#include <atomic>
#include <future>
#include <memory>
#include <vector>

#include "os/kernel.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "virt/factory.hpp"

namespace {

using namespace pinsim;

void BM_EngineScheduleDetached(benchmark::State& state) {
  // The fire-once path. Most of the simulator's events (wakeups, IO
  // completions, message deliveries) go through here.
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      engine.schedule_detached(i, [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleDetached);

void BM_EngineScheduleCancelHalf(benchmark::State& state) {
  // Timers with a realistic cancellation mix — the kernel disarms
  // roughly half its quantum-expiry timers before they fire.
  std::vector<sim::Timer> timers;
  timers.reserve(1000);
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1000; ++i) {
      timers.push_back(engine.make_timer([] {}));
      timers.back().arm(i);
    }
    for (std::size_t i = 0; i < timers.size(); i += 2) {
      timers[i].cancel();
    }
    benchmark::DoNotOptimize(engine.run());
    timers.clear();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleCancelHalf);

void BM_EngineReschedule(benchmark::State& state) {
  // In-place deadline moves on one armed timer, alternating later
  // (re-key + sift-down) and back (re-key + sift-up). This is the
  // per-reprogram cost of the kernel's persistent boundary timers.
  sim::Engine engine;
  sim::Timer timer = engine.make_timer([] {});
  SimTime when = 1000;
  timer.arm(when);
  for (auto _ : state) {
    when = when == 1000 ? 2000 : 1000;
    timer.arm(when);
    benchmark::DoNotOptimize(timer);
  }
  timer.cancel();
  engine.run();
}
BENCHMARK(BM_EngineReschedule);

// Boundary-timer churn: 112 cores each re-arm their quantum timer every
// simulated 50us to a deadline ~100us out, so re-arms almost always land
// before the previous deadline fires — the paper's quota-governed sweep
// in miniature.
constexpr int kChurnCores = 112;
constexpr int kChurnRounds = 200;

SimTime churn_deadline(SimTime now, int round, int core) {
  return now + 100 + ((round + core) % 7) * 10;
}

void BM_BoundaryChurnReschedule(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<sim::Timer> boundary;
    boundary.reserve(kChurnCores);
    for (int core = 0; core < kChurnCores; ++core) {
      boundary.push_back(engine.make_timer([] {}));
    }
    SimTime t = 0;
    for (int round = 0; round < kChurnRounds; ++round) {
      t += 50;
      for (int core = 0; core < kChurnCores; ++core) {
        boundary[core].arm(churn_deadline(t, round, core));
      }
      engine.run(t);
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(state.iterations() * kChurnRounds * kChurnCores);
}
BENCHMARK(BM_BoundaryChurnReschedule);

void BM_ThreadPoolDispatch(benchmark::State& state) {
  // Round-trip cost of fanning trivial cells through the experiment
  // pool: submit N tasks, gather N futures in order.
  const int jobs = static_cast<int>(state.range(0));
  util::ThreadPool pool(jobs);
  for (auto _ : state) {
    std::vector<std::future<int>> futures;
    futures.reserve(256);
    for (int i = 0; i < 256; ++i) {
      futures.push_back(pool.submit([i] { return i; }));
    }
    int sum = 0;
    for (auto& future : futures) sum += future.get();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ThreadPoolDispatch)->Arg(1)->Arg(2)->Arg(4);

void BM_RngDraws(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngDraws);

void BM_RngLognormal(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.lognormal_from_moments(8.0, 3.0));
  }
}
BENCHMARK(BM_RngLognormal);

void BM_SchedulerComputeSliceCycle(benchmark::State& state) {
  // Cost of simulating one second of a fully loaded host of N cpus.
  const int cpus = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    const hw::Topology topo(1, cpus, 1, 16.0);
    hw::CostModel costs;
    os::Kernel kernel(engine, topo, costs, Rng(1));
    for (int i = 0; i < 2 * cpus; ++i) {
      auto done = std::make_shared<bool>(false);
      os::Task& task = kernel.create_task(
          "t" + std::to_string(i),
          std::make_unique<os::LambdaDriver>([done](os::Task&) {
            if (*done) return os::Action::exit();
            *done = true;
            return os::Action::compute(msec(500));
          }));
      kernel.start_task(task);
    }
    state.ResumeTiming();
    kernel.run_until_quiescent();
  }
}
BENCHMARK(BM_SchedulerComputeSliceCycle)->Arg(4)->Arg(16)->Arg(64);

void BM_CgroupCharge(benchmark::State& state) {
  hw::CostModel costs;
  os::Cgroup group({"bench", 4.0, {}}, costs);
  int cpu = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.charge(cpu, usec(100)));
    cpu = (cpu + 1) % 16;
    if (group.throttled()) group.refill_period();
  }
}
BENCHMARK(BM_CgroupCharge);

void BM_PlatformConstruction(benchmark::State& state) {
  const auto& instance = virt::instance_by_name("4xLarge");
  for (auto _ : state) {
    const virt::PlatformSpec spec{virt::PlatformKind::VmContainer,
                                  virt::CpuMode::Pinned, instance};
    virt::Host host(hw::Topology::dell_r830(), hw::CostModel{}, 1);
    auto platform = virt::make_platform(host, spec);
    benchmark::DoNotOptimize(platform->visible_cpus());
  }
}
BENCHMARK(BM_PlatformConstruction);

}  // namespace

BENCHMARK_MAIN();
