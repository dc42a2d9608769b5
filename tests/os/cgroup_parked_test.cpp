// Parked-task bookkeeping (bandwidth throttling) and its order
// independence: unpark is swap-and-pop (O(1) via Task::park_index), so
// the parked list's internal order is an implementation detail that must
// never leak into simulation results.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "hw/topology.hpp"
#include "os/cgroup.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"

namespace pinsim::os {
namespace {

std::unique_ptr<Task> make_task(Task::Id id) {
  return std::make_unique<Task>(
      id, "t" + std::to_string(id),
      std::make_unique<LambdaDriver>([](Task&) { return Action::exit(); }));
}

TEST(CgroupParkedTest, ParkUnparkMaintainsIndices) {
  hw::CostModel costs;
  Cgroup group({"cn", 1.0, {}}, costs);
  auto a = make_task(1);
  auto b = make_task(2);
  auto c = make_task(3);
  group.park(*a);
  group.park(*b);
  group.park(*c);
  EXPECT_TRUE(group.is_parked(*a));
  EXPECT_TRUE(group.is_parked(*b));
  EXPECT_TRUE(group.is_parked(*c));
  EXPECT_EQ(group.parked().size(), 3u);
  // Parking is what marks a task throttled; callers do not.
  for (const auto* task : {a.get(), b.get(), c.get()}) {
    EXPECT_EQ(task->state, TaskState::Throttled);
  }

  // Remove the middle entry: swap-and-pop moves the tail into its slot.
  group.unpark(*b);
  EXPECT_FALSE(group.is_parked(*b));
  EXPECT_EQ(b->park_index(), -1);
  EXPECT_TRUE(group.is_parked(*a));
  EXPECT_TRUE(group.is_parked(*c));
  EXPECT_EQ(group.parked().size(), 2u);
  // The survivors' indices must still point at their own slots.
  for (std::size_t i = 0; i < group.parked().size(); ++i) {
    EXPECT_EQ(group.parked()[i]->park_index(), static_cast<int>(i));
  }
}

TEST(CgroupParkedTest, DoubleParkAndForeignUnparkRejected) {
  hw::CostModel costs;
  Cgroup group({"cn", 1.0, {}}, costs);
  auto a = make_task(1);
  auto b = make_task(2);
  group.park(*a);
  EXPECT_THROW(group.park(*a), InvariantViolation);
  EXPECT_THROW(group.unpark(*b), InvariantViolation);
}

TEST(CgroupParkedTest, TakeParkedPreservesThrottleOrderAndResets) {
  hw::CostModel costs;
  Cgroup group({"cn", 1.0, {}}, costs);
  auto a = make_task(1);
  auto b = make_task(2);
  auto c = make_task(3);
  group.park(*a);
  group.park(*b);
  group.park(*c);
  std::vector<Task*> taken;
  group.take_parked(&taken);
  EXPECT_EQ(taken, (std::vector<Task*>{a.get(), b.get(), c.get()}));
  EXPECT_TRUE(group.parked().empty());
  EXPECT_EQ(a->park_index(), -1);
  EXPECT_EQ(b->park_index(), -1);
  EXPECT_EQ(c->park_index(), -1);
  // Taken tasks can be parked again (unthrottle may re-park on a
  // still-throttled sibling cpu).
  group.park(*b);
  EXPECT_TRUE(group.is_parked(*b));
}

TEST(CgroupParkedTest, RemoveMemberUnparks) {
  hw::CostModel costs;
  Cgroup group({"cn", 1.0, {}}, costs);
  auto a = make_task(1);
  group.add_member(*a);
  group.park(*a);
  group.remove_member(*a);
  EXPECT_FALSE(group.is_parked(*a));
  EXPECT_TRUE(group.parked().empty());
  EXPECT_EQ(a->park_index(), -1);
}

// Regression: simulation results must not depend on the parked list's
// internal order (swap-and-pop unpark permutes it relative to an
// order-preserving erase). When the cpu is busy at unthrottle time,
// every parked task re-enters through the runqueue and execution order
// is purely (vruntime, id)-driven, so a permuted parked list must yield
// bit-identical results. (With an idle cpu the first re-enqueued task
// dispatches immediately — there refill order is semantically load-
// bearing, unchanged from the historical scheduler, and deterministic
// because throttle order is.) A long-running non-group task keeps the
// cpu busy across every refill.
TEST(CgroupParkedTest, ParkedOrderDoesNotAffectResults) {
  struct Outcome {
    SimTime makespan;
    SimDuration usage;
    std::vector<SimTime> finish_times;  // per task, in creation order
  };
  auto compute_once = [](SimDuration work) {
    auto state = std::make_shared<bool>(false);
    return std::make_unique<LambdaDriver>([state, work](Task&) {
      if (*state) return Action::exit();
      *state = true;
      return Action::compute(work);
    });
  };
  auto run = [&](bool permute) {
    sim::Engine engine;
    hw::Topology topo(1, 1, 1, 16.0);
    hw::CostModel costs;
    Kernel kernel(engine, topo, costs, Rng(7));
    Task& blocker =
        kernel.create_task("blocker", compute_once(msec(400)), {});
    kernel.start_task(blocker);
    Cgroup& group = kernel.create_cgroup({"cn", 0.2, {}});
    std::vector<Task*> tasks;
    for (int i = 0; i < 4; ++i) {
      TaskConfig config;
      config.cgroup = &group;
      Task& t = kernel.create_task("w" + std::to_string(i),
                                   compute_once(msec(30)), config);
      kernel.start_task(t);
      tasks.push_back(&t);
    }
    if (permute) {
      // Pause while the group is throttled with tasks parked, then
      // reverse the parked list in place.
      kernel.run_until_quiescent(msec(60));
      std::vector<Task*> parked;
      group.take_parked(&parked);
      EXPECT_GE(parked.size(), 2u);
      std::reverse(parked.begin(), parked.end());
      for (Task* task : parked) group.park(*task);
    }
    EXPECT_TRUE(kernel.run_until_quiescent());
    Outcome outcome;
    outcome.makespan = engine.now();
    outcome.usage = group.stats().usage;
    for (Task* task : tasks) {
      outcome.finish_times.push_back(task->stats.finished_at);
    }
    return outcome;
  };
  const Outcome control = run(false);
  const Outcome permuted = run(true);
  EXPECT_EQ(control.makespan, permuted.makespan);
  EXPECT_EQ(control.usage, permuted.usage);
  EXPECT_EQ(control.finish_times, permuted.finish_times);
}

}  // namespace
}  // namespace pinsim::os
