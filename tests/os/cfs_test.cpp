// The CFS policy steps both kernels share (os/cfs.hpp), tested on bare
// runqueues, cpu sets and Rngs.
#include "os/cfs.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "os/protocol.hpp"
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
  EXPECT_EQ(slice_length(0), msec(12));
  EXPECT_EQ(slice_length(1), msec(12));
  EXPECT_EQ(slice_length(3), msec(4));
  EXPECT_EQ(slice_length(12), msec(1));
  EXPECT_EQ(slice_length(24), msec(1));
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

/// A kernel's steal-search state without the kernel: runqueues, a task
/// table and a cgroup table over eight cpus. Tasks join groups through
/// TaskTable::create and are queued through requeue, as in both kernels.
struct StealWorld {
  static constexpr int kCpus = 8;

  Cgroup& group(double limit, hw::CpuSet cpuset = {}) {
    return groups.create(Cgroup::Config{"g", limit, cpuset}, cpus, costs);
  }
  /// Created, not started.
  Task& create(Cgroup* cgroup, hw::CpuSet affinity = {}) {
    TaskConfig config;
    config.cgroup = cgroup;
    config.affinity = affinity;
    return tasks.create(
        "t" + std::to_string(tasks.tasks().size()),
        std::make_unique<LambdaDriver>([](Task&) { return Action::exit(); }),
        std::move(config), cpus);
  }
  /// Started and queued on `cpu` with `vruntime`.
  Task& queue(hw::CpuId cpu, SimDuration vruntime, Cgroup* cgroup,
              hw::CpuSet affinity = {}) {
    Task& task = create(cgroup, affinity);
    tasks.start(task, 0);
    task.vruntime = vruntime;
    requeue(task, rqs[static_cast<std::size_t>(cpu)], cpu, 0);
    return task;
  }
  /// Started, run and finished: no longer unretired, nor a member.
  void retire(Task& task) {
    tasks.start(task, 0);
    task.state = TaskState::Running;
    tasks.retire(task, 0);
  }
  bool barred(hw::CpuId to) const {
    return groups.bars_every_steal_to(to, tasks.unretired());
  }
  /// The search the early-out stands in for, over every queue.
  StealPick full_search(hw::CpuId to) const {
    return find_steal(
        cpus,
        [this](hw::CpuId cpu) -> const Runqueue& {
          return rqs[static_cast<std::size_t>(cpu)];
        },
        cpus, to);
  }

  const hw::CostModel costs;
  const hw::CpuSet cpus = hw::CpuSet::first_n(kCpus);
  std::vector<Runqueue> rqs = std::vector<Runqueue>(kCpus);
  TaskTable tasks;
  CgroupTable groups;
};

/// Throttle quota `group` with no local slice left on `on`: one charge
/// that drains the pool (limits up to 10 cpus).
void drain(Cgroup& group, hw::CpuId on) {
  group.charge(on, sec(1));
  ASSERT_TRUE(group.throttled());
  ASSERT_EQ(group.local_runtime(on), 0);
}

void expect_nothing(const StealPick& pick) {
  EXPECT_EQ(pick.victim, -1);
  EXPECT_EQ(pick.task, nullptr);
}

TEST(StealEarlyOutTest, BarsWhenEveryUnretiredTaskIsThrottledThere) {
  StealWorld world;
  Cgroup& cn = world.group(1.0);
  for (int k = 0; k < 5; ++k) world.queue(1 + k % 3, msec(k), &cn);
  // An uncapped task that has finished no longer counts.
  world.retire(world.create(nullptr));
  EXPECT_FALSE(world.barred(0));  // not throttled yet
  drain(cn, 1);
  EXPECT_EQ(world.tasks.unretired(), 5);
  for (hw::CpuId to = 0; to < StealWorld::kCpus; ++to) {
    EXPECT_TRUE(world.barred(to)) << "cpu " << to;
    expect_nothing(world.full_search(to));
  }
}

TEST(StealEarlyOutTest, UncappedQueuedTaskIsStillStolen) {
  StealWorld world;
  Cgroup& cn = world.group(1.0);
  for (int k = 0; k < 4; ++k) world.queue(2, msec(k), &cn);
  Task& free = world.queue(3, msec(1), nullptr);
  drain(cn, 2);
  EXPECT_FALSE(world.barred(0));
  const StealPick steal = world.full_search(0);
  EXPECT_EQ(steal.victim, 3);
  EXPECT_EQ(steal.task, &free);
}

TEST(StealEarlyOutTest, UnthrottledSecondGroupKeepsTheSearch) {
  StealWorld world;
  Cgroup& dry = world.group(1.0);
  Cgroup& fed = world.group(2.0);
  for (int k = 0; k < 4; ++k) world.queue(1, msec(k), &dry);
  Task& movable = world.queue(2, msec(3), &fed);
  drain(dry, 1);
  ASSERT_FALSE(fed.throttled_on(0));
  EXPECT_FALSE(world.barred(0));
  const StealPick steal = world.full_search(0);
  EXPECT_EQ(steal.victim, 2);
  EXPECT_EQ(steal.task, &movable);
  // Throttle the second group too: now both bar cpu 0.
  drain(fed, 5);
  EXPECT_TRUE(world.barred(0));
  expect_nothing(world.full_search(0));
}

TEST(StealEarlyOutTest, UnstartedUncappedTaskSwitchesTheEarlyOutOff) {
  StealWorld world;
  Cgroup& cn = world.group(1.0);
  for (int k = 0; k < 3; ++k) world.queue(4, msec(k), &cn);
  drain(cn, 4);
  ASSERT_TRUE(world.barred(0));
  // Created but not started: it cannot be queued, yet it makes the
  // members fall short of the unretired count, so the search runs (and
  // finds what the early-out would have answered).
  world.create(nullptr);
  EXPECT_FALSE(world.barred(0));
  expect_nothing(world.full_search(0));
}

TEST(StealEarlyOutTest, LocalSliceOnTheTargetIsNotBarred) {
  StealWorld world;
  Cgroup& cn = world.group(1.0);
  Task& first = world.queue(3, msec(1), &cn);
  Task& second = world.queue(3, msec(7), &cn);
  cn.charge(0, msec(1));  // cpu 0 takes a slice and keeps 4 ms of it
  drain(cn, 1);
  ASSERT_GT(cn.local_runtime(0), 0);
  EXPECT_FALSE(world.barred(0));
  const StealPick steal = world.full_search(0);
  EXPECT_EQ(steal.victim, 3);
  EXPECT_EQ(steal.task, &second);  // the most-serviced one
  EXPECT_NE(steal.task, &first);
  // Elsewhere the group holds no slice: barred there.
  EXPECT_TRUE(world.barred(2));
  expect_nothing(world.full_search(2));
}

// Random runqueue and cgroup states: quota and uncapped groups, cpusets,
// local slices and throttles that differ per cpu, capped and uncapped
// tasks with and without affinity, some unstarted and some retired.
// Whenever the early-out bars a target, the full search finds nothing
// there; and the throttle-first steal_eligible agrees with the
// mask-first order it replaced on every queued task and target.
TEST(StealEarlyOutTest, RandomStatesAgreeWithTheFullSearch) {
  Rng rng(20260421);
  auto random_subset = [&] {
    hw::CpuSet set;
    while (set.empty()) {
      for (hw::CpuId cpu = 0; cpu < StealWorld::kCpus; ++cpu) {
        if (rng.chance(0.5)) set.add(cpu);
      }
    }
    return set;
  };
  // The order steal_eligible used before the throttle test moved first.
  auto mask_first = [](const hw::CpuSet& cpus, const Task& task,
                       hw::CpuId to) {
    if (!allowed_cpus(cpus, task).contains(to)) return false;
    return task.cgroup == nullptr || !task.cgroup->throttled_on(to);
  };
  int barred = 0;
  int open = 0;
  int stolen = 0;
  for (int trial = 0; trial < 400; ++trial) {
    StealWorld world;
    std::vector<Cgroup*> groups;
    const int group_count = static_cast<int>(rng.uniform_int(0, 3));
    for (int g = 0; g < group_count; ++g) {
      const double limit =
          rng.chance(0.75) ? 0.5 * static_cast<double>(rng.uniform_int(1, 4))
                           : 0.0;
      Cgroup& group =
          world.group(limit, rng.chance(0.3) ? random_subset() : hw::CpuSet{});
      if (group.has_quota()) {
        const int charges = static_cast<int>(rng.uniform_int(0, 6));
        for (int c = 0; c < charges; ++c) {
          group.charge(static_cast<hw::CpuId>(rng.uniform_int(0, 7)),
                       usec(rng.uniform_int(0, 8000)));
        }
        if (rng.chance(0.6)) {
          group.charge(static_cast<hw::CpuId>(rng.uniform_int(0, 7)), sec(1));
        }
      }
      groups.push_back(&group);
    }
    const double uncapped = groups.empty() ? 1.0 : rng.chance(0.4) ? 0.0 : 0.3;
    std::vector<Task*> queued;
    const int task_count = static_cast<int>(rng.uniform_int(0, 24));
    for (int t = 0; t < task_count; ++t) {
      Cgroup* cgroup =
          rng.chance(uncapped)
              ? nullptr
              : groups[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(groups.size()) - 1))];
      hw::CpuSet affinity = rng.chance(0.3) ? random_subset() : hw::CpuSet{};
      // Keep every task placeable: its allowed set must not be empty.
      if (cgroup != nullptr && !cgroup->cpuset().empty() &&
          !affinity.empty() && (affinity & cgroup->cpuset()).empty()) {
        affinity = hw::CpuSet{};
      }
      const double fate = rng.next_double();
      if (fate < 0.15) {
        world.create(cgroup, affinity);
      } else if (fate < 0.25) {
        world.retire(world.create(cgroup, affinity));
      } else {
        queued.push_back(&world.queue(
            static_cast<hw::CpuId>(rng.uniform_int(0, 7)),
            usec(rng.uniform_int(0, 50000)), cgroup, affinity));
      }
    }
    for (hw::CpuId to = 0; to < StealWorld::kCpus; ++to) {
      const StealPick full = world.full_search(to);
      if (world.barred(to)) {
        ++barred;
        EXPECT_EQ(full.victim, -1) << "trial " << trial << " cpu " << to;
        EXPECT_EQ(full.task, nullptr) << "trial " << trial << " cpu " << to;
      } else {
        ++open;
        if (full.task != nullptr) ++stolen;
      }
      for (const Task* task : queued) {
        EXPECT_EQ(steal_eligible(world.cpus, *task, to),
                  mask_first(world.cpus, *task, to))
            << "trial " << trial << " task " << task->name() << " cpu "
            << to;
      }
    }
  }
  // Both answers occur often, and an open search often finds a task.
  EXPECT_GT(barred, 200);
  EXPECT_GT(open, 200);
  EXPECT_GT(stolen, 200);
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
