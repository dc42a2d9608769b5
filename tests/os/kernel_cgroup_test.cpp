// cgroup bandwidth control and accounting overhead at kernel level —
// the mechanisms behind the paper's Platform-Size Overhead (§IV-B).
#include <gtest/gtest.h>

#include <memory>

#include "hw/topology.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"

namespace pinsim::os {
namespace {

std::unique_ptr<TaskDriver> compute_once(SimDuration work) {
  auto state = std::make_shared<bool>(false);
  return std::make_unique<LambdaDriver>([state, work](Task&) {
    if (*state) return Action::exit();
    *state = true;
    return Action::compute(work);
  });
}

std::unique_ptr<TaskDriver> compute_sleep_loop(SimDuration work,
                                               SimDuration sleep,
                                               int iterations) {
  auto n = std::make_shared<int>(0);
  auto sleeping = std::make_shared<bool>(false);
  return std::make_unique<LambdaDriver>(
      [n, sleeping, work, sleep, iterations](Task&) {
        if (*n >= iterations) return Action::exit();
        if (!*sleeping) {
          *sleeping = true;
          return Action::compute(work);
        }
        *sleeping = false;
        ++*n;
        return Action::sleep_for(sleep);
      });
}

struct Harness {
  explicit Harness(const hw::Topology& topo, std::uint64_t seed = 1)
      : topology(topo), kernel(engine, topology, costs, Rng(seed)) {}
  sim::Engine engine;
  hw::Topology topology;
  hw::CostModel costs;
  Kernel kernel;
};

TEST(KernelCgroupTest, QuotaCapsThroughput) {
  // 4 cpu-bound tasks, 4-cpu host, but the group may only use 1 cpu's
  // worth of time: the makespan must be ~4x the unconstrained case.
  Harness h(hw::Topology(1, 4, 1, 16.0));
  Cgroup& group = h.kernel.create_cgroup({"small-cn", 1.0, {}});
  for (int i = 0; i < 4; ++i) {
    TaskConfig config;
    config.cgroup = &group;
    Task& t = h.kernel.create_task("w" + std::to_string(i),
                                   compute_once(msec(100)), config);
    h.kernel.start_task(t);
  }
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_GE(h.engine.now(), msec(380));
  EXPECT_GT(h.kernel.stats().throttle_events, 0);
  EXPECT_GT(h.kernel.stats().unthrottle_events, 0);
  EXPECT_GT(group.stats().throttles, 0);
}

TEST(KernelCgroupTest, ExitedTasksLeaveTheGroup) {
  // The group counts live members only: the exit path removes a task,
  // so a long-running container does not accumulate its dead requests.
  Harness h(hw::Topology(1, 4, 1, 16.0));
  Cgroup& group = h.kernel.create_cgroup({"cn", 1.0, {}});
  TaskConfig config;
  config.cgroup = &group;
  Task& quick = h.kernel.create_task("quick", compute_once(msec(1)), config);
  Task& slow = h.kernel.create_task("slow", compute_once(msec(50)), config);
  EXPECT_EQ(group.member_count(), 2);
  h.kernel.start_task(quick);
  h.kernel.start_task(slow);
  h.engine.run(msec(20));
  EXPECT_EQ(quick.state, TaskState::Finished);
  EXPECT_EQ(quick.cgroup, nullptr);
  EXPECT_EQ(slow.cgroup, &group);
  EXPECT_EQ(group.member_count(), 1);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_EQ(group.member_count(), 0);
}

TEST(KernelCgroupTest, GenerousQuotaNeverThrottles) {
  Harness h(hw::Topology(1, 4, 1, 16.0));
  Cgroup& group = h.kernel.create_cgroup({"big-cn", 4.0, {}});
  TaskConfig config;
  config.cgroup = &group;
  Task& t = h.kernel.create_task("solo", compute_once(msec(200)), config);
  h.kernel.start_task(t);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_EQ(group.stats().throttles, 0);
  EXPECT_LT(h.engine.now(), msec(210));
}

TEST(KernelCgroupTest, ThrottledTasksResumeAfterRefill) {
  Harness h(hw::Topology(1, 1, 1, 16.0));
  Cgroup& group = h.kernel.create_cgroup({"cn", 0.5, {}});
  TaskConfig config;
  config.cgroup = &group;
  Task& t = h.kernel.create_task("w", compute_once(msec(100)), config);
  h.kernel.start_task(t);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  // 100 ms of work at half a cpu: ~200 ms wall time.
  EXPECT_GE(h.engine.now(), msec(195));
  EXPECT_LT(h.engine.now(), msec(310));
  EXPECT_EQ(t.stats.work_done, msec(100));
}

TEST(KernelCgroupTest, UsageNeverExceedsQuotaPerPeriodByMuch) {
  Harness h(hw::Topology(1, 4, 1, 16.0));
  Cgroup& group = h.kernel.create_cgroup({"cn", 2.0, {}});
  for (int i = 0; i < 4; ++i) {
    TaskConfig config;
    config.cgroup = &group;
    Task& t = h.kernel.create_task("w" + std::to_string(i),
                                   compute_once(msec(200)), config);
    h.kernel.start_task(t);
  }
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  const double seconds = to_seconds(h.engine.now());
  const double used = to_seconds(group.stats().usage);
  // Average usage rate must stay at/below the 2-cpu quota (small slack
  // for the final partial period and per-cpu enforcement granularity).
  EXPECT_LE(used, 2.0 * seconds + 0.02);
}

TEST(KernelCgroupTest, WideGroupPaysMoreAggregationThanPinned) {
  // The PSO mechanism in isolation: identical server-like work whose
  // demand far exceeds the 4-cpu quota. The vanilla group smears over the
  // 112-cpu host (wide aggregation spread, throttle churn); the pinned
  // one stays on 4 cpus. Vanilla must pay more accounting overhead and,
  // since quota is the binding resource, finish later.
  auto run = [](bool pinned) {
    Harness h(hw::Topology::dell_r830(), 21);
    Cgroup::Config cfg{"cn", 4.0, {}};
    if (pinned) cfg.cpuset = hw::CpuSet::first_n(4);
    Cgroup& group = h.kernel.create_cgroup(cfg);
    for (int i = 0; i < 40; ++i) {
      TaskConfig config;
      config.cgroup = &group;
      config.working_set_mb = 20.0;
      Task& t = h.kernel.create_task(
          "w" + std::to_string(i),
          compute_sleep_loop(msec(1), msec(1), 40), config);
      h.kernel.start_task(t);
    }
    EXPECT_TRUE(h.kernel.run_until_quiescent());
    const auto& s = group.stats();
    return std::pair<int, SimDuration>(s.max_spread,
                                       s.accounting_overhead);
  };
  const auto [vanilla_spread, vanilla_overhead] = run(false);
  const auto [pinned_spread, pinned_overhead] = run(true);
  // The vanilla group smears across far more cpus, so the atomic
  // aggregation passes walk more per-cpu records and cost more in total.
  EXPECT_GE(vanilla_spread, 20);
  EXPECT_LE(pinned_spread, 4);
  EXPECT_GT(vanilla_overhead, pinned_overhead);
}

TEST(KernelCgroupTest, AggregationEventsRecorded) {
  Harness h(hw::Topology(1, 4, 1, 16.0));
  Cgroup& group = h.kernel.create_cgroup({"cn", 2.0, {}});
  TaskConfig config;
  config.cgroup = &group;
  Task& t = h.kernel.create_task("w", compute_once(msec(50)), config);
  h.kernel.start_task(t);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_GT(h.kernel.stats().aggregation_events, 10);
  EXPECT_GT(group.stats().aggregations, 10);
}

TEST(KernelCgroupTest, BoundaryTimerChurnReArmsQueuedTimers) {
  // The boundary-reprogram storm of a quota-governed sweep re-arms each
  // core's persistent sim::Timer while it is still queued, re-keying its
  // heap entry in place rather than pushing a new one.
  Harness h(hw::Topology(2, 8, 1, 16.0), 7);
  Cgroup& group = h.kernel.create_cgroup({"cn", 3.0, {}});
  for (int i = 0; i < 12; ++i) {
    TaskConfig config;
    config.cgroup = &group;
    Task& t = h.kernel.create_task("w" + std::to_string(i),
                                   compute_sleep_loop(msec(2), msec(1), 60),
                                   config);
    h.kernel.start_task(t);
  }
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  const sim::EngineStats& stats = h.engine.stats();
  ASSERT_GT(stats.fired, 1000);
  EXPECT_GT(stats.reschedules, 0);
}

TEST(KernelCgroupTest, TaskWokenDuringThrottleParksUntilRefill) {
  Harness h(hw::Topology(1, 1, 1, 16.0));
  Cgroup& group = h.kernel.create_cgroup({"cn", 0.2, {}});
  // A cpu hog exhausts the quota early in each period...
  TaskConfig config;
  config.cgroup = &group;
  Task& hog = h.kernel.create_task("hog", compute_once(msec(60)), config);
  h.kernel.start_task(hog);
  // ...and a sleeper in the same group wakes mid-throttle.
  auto stage = std::make_shared<int>(0);
  Task& sleeper = h.kernel.create_task(
      "sleeper", std::make_unique<LambdaDriver>([stage](Task&) {
        switch ((*stage)++) {
          case 0:
            return Action::sleep_for(msec(50));
          case 1:
            return Action::compute(msec(1));
          default:
            return Action::exit();
        }
      }),
      config);
  h.kernel.start_task(sleeper);
  EXPECT_TRUE(h.kernel.run_until_quiescent());
  // Quota 0.2 cpu: 61 ms of work takes ~305 ms of wall time; both done.
  EXPECT_EQ(hog.state, TaskState::Finished);
  EXPECT_EQ(sleeper.state, TaskState::Finished);
  EXPECT_GE(h.engine.now(), msec(290));
}

}  // namespace
}  // namespace pinsim::os
