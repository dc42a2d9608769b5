// The CFS policy steps both kernels share (os/cfs.hpp), tested on bare
// runqueues, cpu sets and Rngs.
#include "os/cfs.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace pinsim::os {
namespace {

class CfsTest : public ::testing::Test {
 protected:
  Task& add_task(SimDuration vruntime) {
    const auto id = static_cast<Task::Id>(tasks_.size() + 1);
    tasks_.push_back(std::make_unique<Task>(
        id, "t" + std::to_string(id),
        std::make_unique<LambdaDriver>([](Task&) { return Action::exit(); })));
    tasks_.back()->vruntime = vruntime;
    return *tasks_.back();
  }
  /// A task with `vruntime` queued on `rqs_[cpu]`.
  Task& queue(hw::CpuId cpu, SimDuration vruntime) {
    Task& task = add_task(vruntime);
    task.queued_cpu = cpu;
    rqs_[static_cast<std::size_t>(cpu)].enqueue(task);
    return task;
  }
  StealPick steal_for(hw::CpuId to, const hw::CpuSet& victims) {
    return find_steal(
        victims,
        [this](hw::CpuId cpu) -> const Runqueue& {
          return rqs_[static_cast<std::size_t>(cpu)];
        },
        cpus_, to);
  }

  const hw::CpuSet cpus_ = hw::CpuSet::first_n(4);
  std::vector<Runqueue> rqs_ = std::vector<Runqueue>(4);
  std::vector<std::unique_ptr<Task>> tasks_;
};

TEST_F(CfsTest, StealTakesMostServicedTaskOfBusiestQueue) {
  queue(1, msec(1));
  queue(1, msec(2));
  queue(2, msec(3));
  Task& most_serviced = queue(2, msec(9));
  queue(2, msec(4));
  // Queue 3 ties queue 2 at three tasks: the lower index wins.
  queue(3, msec(5));
  queue(3, msec(6));
  queue(3, msec(20));
  const StealPick steal = steal_for(0, cpus_);
  EXPECT_EQ(steal.victim, 2);
  EXPECT_EQ(steal.task, &most_serviced);
}

TEST_F(CfsTest, StealSkipsIneligibleAndThrottledTasks) {
  // Queue 1: its most-serviced task may not run on cpu 0.
  Task& pinned_away = queue(1, msec(9));
  pinned_away.affinity = hw::CpuSet::of({1});
  Task& movable = queue(1, msec(4));
  // Queue 2 is busier, but every task is pinned off cpu 0.
  for (int k = 0; k < 3; ++k) {
    queue(2, msec(10 + k)).affinity = hw::CpuSet::of({2, 3});
  }
  // Queue 3 is busiest, but its group is throttled on cpu 0.
  const hw::CostModel costs;
  Cgroup group(Cgroup::Config{"cn", 1.0, {}}, costs);
  group.charge(3, msec(150));
  ASSERT_TRUE(group.throttled_on(0));
  for (int k = 0; k < 4; ++k) queue(3, msec(20 + k)).cgroup = &group;

  const StealPick steal = steal_for(0, cpus_);
  EXPECT_EQ(steal.victim, 1);
  EXPECT_EQ(steal.task, &movable);
  EXPECT_EQ(movable_task(rqs_[2], cpus_, 0), nullptr);
  EXPECT_EQ(movable_task(rqs_[3], cpus_, 0), nullptr);
}

TEST_F(CfsTest, StealVisitsOnlyTheVictimSetAndMayFindNothing) {
  queue(1, msec(1));
  queue(2, msec(2));
  queue(2, msec(3));
  // The busier queue 2 is not a candidate victim.
  EXPECT_EQ(steal_for(0, hw::CpuSet::of({1, 3})).victim, 1);
  const StealPick none = steal_for(0, hw::CpuSet::of({3}));
  EXPECT_EQ(none.victim, -1);
  EXPECT_EQ(none.task, nullptr);
}

TEST_F(CfsTest, MoveRenormalizesVruntimeBetweenQueueMinimums) {
  queue(1, msec(10));
  Task& task = queue(1, msec(30));
  queue(2, msec(50));
  ASSERT_EQ(rqs_[1].min_vruntime(), msec(10));
  ASSERT_EQ(rqs_[2].min_vruntime(), msec(50));
  move_queued(task, rqs_[1], rqs_[2], 2);
  // 20 ms ahead of the source's minimum stays 20 ms ahead of the target's.
  EXPECT_EQ(task.vruntime, msec(70));
  EXPECT_EQ(task.queued_cpu, 2);
  EXPECT_FALSE(rqs_[1].contains(task));
  EXPECT_FALSE(rqs_[2].contains(task));  // the caller enqueues
  EXPECT_EQ(rqs_[1].size(), 1);
}

TEST(CfsPickTest, LeastLoadedDrawsOnceAndTakesTheKthTie) {
  // Loads by cpu; the ties at load 1 are cpus 1, 3 and 5 (cpu 6 is
  // outside the allowed set).
  const std::vector<int> load = {2, 1, 3, 1, 4, 1, 1};
  const hw::CpuSet allowed = hw::CpuSet::first_n(6);
  const std::vector<hw::CpuId> ties = {1, 3, 5};
  std::vector<int> seen(ties.size(), 0);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    Rng copy = rng;
    const hw::CpuId pick = pick_least_loaded(
        allowed,
        [&](hw::CpuId cpu) { return load[static_cast<std::size_t>(cpu)]; },
        rng);
    const auto k = static_cast<std::size_t>(copy.uniform_int(0, 2));
    EXPECT_EQ(pick, ties[k]) << "seed " << seed;
    ++seen[k];
    // Exactly one draw: both streams continue in step.
    EXPECT_EQ(rng.next_u64(), copy.next_u64()) << "seed " << seed;
  }
  for (const int count : seen) EXPECT_GT(count, 0);
}

TEST(CfsPickTest, UniformPickDrawsOnlyOverANonEmptySet) {
  Rng rng(7);
  Rng copy = rng;
  EXPECT_EQ(pick_uniform(hw::CpuSet{}, rng), -1);
  EXPECT_EQ(rng.next_u64(), copy.next_u64());  // no draw
  const hw::CpuSet set = hw::CpuSet::of({2, 5, 9});
  const hw::CpuId pick = pick_uniform(set, rng);
  EXPECT_EQ(pick, set.nth_set(static_cast<int>(copy.uniform_int(0, 2))));
  EXPECT_EQ(rng.next_u64(), copy.next_u64());
}

TEST(CfsParamsTest, SliceSharesLatencyAboveTheGranularity) {
  SchedParams params;
  params.sched_latency = msec(12);
  params.min_granularity = msec(2);
  EXPECT_EQ(slice_length(params, 0), msec(12));
  EXPECT_EQ(slice_length(params, 1), msec(12));
  EXPECT_EQ(slice_length(params, 3), msec(4));
  EXPECT_EQ(slice_length(params, 12), msec(2));
}

TEST(CfsParamsTest, ValidateRejectsZeroLatencyOrGranularity) {
  SchedParams params;
  EXPECT_NO_THROW(validate(params));
  params.sched_latency = 0;
  EXPECT_THROW(validate(params), InvariantViolation);
  params = SchedParams{};
  params.min_granularity = 0;
  EXPECT_THROW(validate(params), InvariantViolation);
}

TEST_F(CfsTest, CgroupTickReleasesParkedTasksInThrottleOrder) {
  const hw::CostModel costs;
  CgroupTable table;
  Cgroup& group = table.create(Cgroup::Config{"cn", 1.0, {}}, cpus_, costs);
  Task& first = add_task(0);
  Task& second = add_task(0);
  group.add_member(first);
  group.add_member(second);
  group.charge(0, msec(150));
  ASSERT_TRUE(group.throttled());
  group.park(second);
  group.park(first);

  table.restart(0);
  std::vector<Task*> order;
  int aggregated = 0;
  auto tick = [&](SimTime now) {
    return table.tick(
        now, costs, [&](Cgroup&) { ++aggregated; },
        [](Task&) { return hw::CpuId{2}; },
        [&](Task& task, hw::CpuId cpu) {
          EXPECT_EQ(cpu, 2);
          order.push_back(&task);
        });
  };
  EXPECT_EQ(tick(0), 1);
  EXPECT_EQ(order, (std::vector<Task*>{&second, &first}));
  EXPECT_EQ(first.overhead_debt, costs.sched_pick);
  EXPECT_TRUE(group.parked().empty());
  // The next period is a cfs_period away: no refill before it.
  group.charge(0, msec(150));
  group.park(first);
  EXPECT_EQ(tick(costs.cfs_period - 1), 0);
  EXPECT_EQ(tick(costs.cfs_period), 1);
  EXPECT_EQ(aggregated, 3);
}

TEST(CfsCgroupTest, CpusetMustLieWithinTheKernelsCpus) {
  const hw::CostModel costs;
  CgroupTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_THROW(table.create(Cgroup::Config{"cn", 0.0, hw::CpuSet::of({4})},
                            hw::CpuSet::first_n(4), costs),
               InvariantViolation);
  table.create(Cgroup::Config{"cn", 0.0, hw::CpuSet::of({3})},
               hw::CpuSet::first_n(4), costs);
  EXPECT_FALSE(table.empty());
}

}  // namespace
}  // namespace pinsim::os
