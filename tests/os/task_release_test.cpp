// A finished task keeps its record (id, name, state, stats) until a
// later create reuses its slot, and drops what only a live task needs:
// its driver, its exit hook and its NUMA home reference.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hw/topology.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"
#include "util/check.hpp"
#include "virt/instance_type.hpp"
#include "virt/vm.hpp"

namespace pinsim::os {
namespace {

struct Harness {
  explicit Harness(const hw::Topology& topo)
      : topology(topo), kernel(engine, topology, costs, Rng(7)) {}

  sim::Engine engine;
  hw::Topology topology;
  hw::CostModel costs;
  Kernel kernel;
};

/// Compute, sleep, compute, exit. Counts its live instances, and on
/// its last action records the NUMA home its task reads while running
/// (-2 for none), indexed by task id.
class CountedDriver final : public TaskDriver {
 public:
  CountedDriver(int* live, SimDuration work, std::vector<int>* homes)
      : live_(live), work_(work), homes_(homes) {
    ++*live_;
  }
  CountedDriver(const CountedDriver&) = delete;
  CountedDriver& operator=(const CountedDriver&) = delete;
  ~CountedDriver() override { --*live_; }

  Action next(Task& task) override {
    switch (stage_++) {
      case 0:
        return Action::compute(work_);
      case 1:
        return Action::sleep_for(usec(200));
      case 2:
        return Action::compute(work_);
      default:
        (*homes_)[static_cast<std::size_t>(task.id())] =
            task.numa_home != nullptr ? *task.numa_home : -2;
        return Action::exit();
    }
  }

 private:
  int* live_;
  SimDuration work_;
  std::vector<int>* homes_;
  int stage_ = 0;
};

/// Exit hook that counts its live copies (std::function copies and
/// moves its target; every copy must be gone after the exit) and its
/// runs, and records the stats each task exits with.
struct CountedHook {
  using AtExit = std::vector<std::pair<Task::Id, TaskStats>>;

  CountedHook(int* live, int* runs, AtExit* at_exit)
      : live_(live), runs_(runs), at_exit_(at_exit) {
    ++*live_;
  }
  CountedHook(const CountedHook& other)
      : live_(other.live_), runs_(other.runs_), at_exit_(other.at_exit_) {
    ++*live_;
  }
  CountedHook& operator=(const CountedHook&) = delete;
  ~CountedHook() { --*live_; }

  void operator()(Task& task) const {
    ++*runs_;
    at_exit_->emplace_back(task.id(), task.stats);
  }

  int* live_;
  int* runs_;
  AtExit* at_exit_;
};

void expect_same_stats(const TaskStats& a, const TaskStats& b) {
  EXPECT_EQ(a.cpu_time, b.cpu_time);
  EXPECT_EQ(a.work_done, b.work_done);
  EXPECT_EQ(a.overhead_paid, b.overhead_paid);
  EXPECT_EQ(a.wait_time, b.wait_time);
  EXPECT_EQ(a.block_time, b.block_time);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.wakeups, b.wakeups);
  EXPECT_EQ(a.io_ops, b.io_ops);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.started_at, b.started_at);
  EXPECT_EQ(a.finished_at, b.finished_at);
}

TEST(TaskReleaseTest, FinishedHostTasksKeepOnlyTheirRecord) {
  Harness h(hw::Topology(2, 2, 1, 16.0));
  constexpr int kTasks = 6;
  int live_drivers = 0;
  int live_hooks = 0;
  int hook_runs = 0;
  CountedHook::AtExit at_exit;
  std::vector<int> homes(kTasks, -3);
  // Three sibling threads share one home; the rest get their own. The
  // short sibling exits first, the two long ones still read the home.
  auto shared_home = std::make_shared<int>(-1);
  const std::weak_ptr<int> shared_watch = shared_home;
  for (int i = 0; i < kTasks; ++i) {
    TaskConfig config;
    config.numa_home = i < 3 ? shared_home : std::make_shared<int>(-1);
    config.on_exit = CountedHook(&live_hooks, &hook_runs, &at_exit);
    Task& task = h.kernel.create_task(
        "t" + std::to_string(i),
        std::make_unique<CountedDriver>(&live_drivers,
                                        i == 0 ? msec(1) : msec(5), &homes),
        std::move(config));
    h.kernel.start_task(task);
  }
  shared_home.reset();
  EXPECT_EQ(live_drivers, kTasks);
  EXPECT_EQ(live_hooks, kTasks);

  EXPECT_TRUE(h.kernel.run_until_quiescent());
  EXPECT_EQ(live_drivers, 0);
  EXPECT_EQ(live_hooks, 0);
  EXPECT_EQ(hook_runs, kTasks);
  EXPECT_TRUE(shared_watch.expired());
  // Every task read a first-touch socket on its last action, and the
  // siblings that outlived the first to exit read the one they share.
  for (const int home : homes) {
    EXPECT_GE(home, 0);
    EXPECT_LT(home, 2);
  }
  EXPECT_EQ(homes[1], homes[0]);
  EXPECT_EQ(homes[2], homes[0]);

  const auto& tasks = h.kernel.tasks();
  ASSERT_EQ(tasks.size(), static_cast<std::size_t>(kTasks));
  EXPECT_LT(tasks[0]->stats.finished_at, tasks[1]->stats.finished_at);
  EXPECT_LT(tasks[0]->stats.finished_at, tasks[2]->stats.finished_at);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Task& task = *tasks[i];
    EXPECT_EQ(task.id(), static_cast<Task::Id>(i));
    EXPECT_EQ(task.name(), "t" + std::to_string(i));
    EXPECT_EQ(task.state, TaskState::Finished);
    EXPECT_EQ(task.numa_home, nullptr);
    EXPECT_EQ(task.stats.work_done, i == 0 ? msec(2) : msec(10));
    EXPECT_THROW(task.driver(), InvariantViolation);
  }
  for (const auto& [id, stats] : at_exit) {
    expect_same_stats(tasks[static_cast<std::size_t>(id)]->stats, stats);
  }
}

TEST(TaskReleaseTest, FinishedGuestTasksKeepOnlyTheirRecord) {
  // Guest tasks finish through the guest kernel, not the host's.
  const virt::PlatformSpec spec{virt::PlatformKind::Vm,
                                virt::CpuMode::Vanilla,
                                virt::instance_by_name("Large")};
  virt::Host host(hw::Topology::dell_r830(), hw::CostModel{}, 3);
  virt::VmPlatform vm(host, spec);
  constexpr int kTasks = 5;
  int live_drivers = 0;
  int live_hooks = 0;
  int hook_runs = 0;
  CountedHook::AtExit at_exit;
  std::vector<int> homes(kTasks, -3);
  for (int i = 0; i < kTasks; ++i) {
    virt::WorkTaskConfig config;
    config.name = "g" + std::to_string(i);
    config.on_exit = CountedHook(&live_hooks, &hook_runs, &at_exit);
    Task& task = vm.spawn(
        std::move(config),
        std::make_unique<CountedDriver>(&live_drivers, msec(2), &homes));
    vm.start(task);
  }
  EXPECT_EQ(live_drivers, kTasks);
  EXPECT_EQ(live_hooks, kTasks);

  EXPECT_TRUE(host.engine().run_until(
      [&] { return vm.guest().live_tasks() == 0; }, sec(10)));
  EXPECT_EQ(live_drivers, 0);
  EXPECT_EQ(live_hooks, 0);
  EXPECT_EQ(hook_runs, kTasks);
  // Guest tasks are NUMA-exempt.
  for (const int home : homes) EXPECT_EQ(home, -2);

  const auto& tasks = vm.guest().tasks();
  ASSERT_EQ(tasks.size(), static_cast<std::size_t>(kTasks));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    Task& task = *tasks[i];
    EXPECT_EQ(task.name(), "g" + std::to_string(i));
    EXPECT_EQ(task.state, TaskState::Finished);
    EXPECT_EQ(task.stats.work_done, msec(4));
    EXPECT_THROW(task.driver(), InvariantViolation);
  }
  for (const auto& [id, stats] : at_exit) {
    expect_same_stats(tasks[static_cast<std::size_t>(id)]->stats, stats);
  }
  // The vCPU threads are host tasks that never finish: they keep theirs.
  for (Task* vcpu : vm.vcpu_tasks()) {
    EXPECT_NE(vcpu->state, TaskState::Finished);
    EXPECT_NO_THROW(vcpu->driver());
  }
}

/// A closed-loop client on one kernel: each request's exit hook starts
/// the next request, so the hook creates a task while it runs. The hook
/// records what the finished task's slot holds when the hook returns.
class ClosedLoopClient {
 public:
  ClosedLoopClient(Kernel& kernel, int requests)
      : kernel_(&kernel), requests_(requests) {}

  void spawn() {
    const int id = spawned_++;
    auto stage = std::make_shared<int>(0);
    TaskConfig config;
    config.on_exit = [this](Task& task) {
      if (spawned_ < requests_) spawn();
      finished_.push_back({task.id(), task.state, task.stats});
    };
    Task& task = kernel_->create_task(
        "req" + std::to_string(id),
        std::make_unique<LambdaDriver>([stage](Task&) {
          switch ((*stage)++) {
            case 0:
              return Action::compute(usec(300));
            case 1:
              return Action::sleep_for(usec(100));
            default:
              return Action::exit();
          }
        }),
        std::move(config));
    kernel_->start_task(task);
  }

  struct Record {
    Task::Id id;
    TaskState state;
    TaskStats stats;
  };
  const std::vector<Record>& finished() const { return finished_; }

 private:
  Kernel* kernel_;
  int requests_;
  int spawned_ = 0;
  std::vector<Record> finished_;
};

TEST(TaskReleaseTest, ExitHookMayStartTheNextTaskOnItsKernel) {
  Harness h(hw::Topology(1, 1, 1, 16.0));
  constexpr int kRequests = 40;
  ClosedLoopClient client(h.kernel, kRequests);
  client.spawn();
  EXPECT_TRUE(h.kernel.run_until_quiescent());

  // The hook's own task keeps its slot while the hook creates the next
  // one, so one request at a time needs two slots.
  EXPECT_EQ(h.kernel.tasks().size(), 2u);
  const auto& finished = client.finished();
  ASSERT_EQ(finished.size(), static_cast<std::size_t>(kRequests));
  for (std::size_t i = 0; i < finished.size(); ++i) {
    EXPECT_EQ(finished[i].id, static_cast<Task::Id>(i));
    EXPECT_EQ(finished[i].state, TaskState::Finished);
    // One request at a time: each starts at its predecessor's exit.
    if (i > 0) {
      EXPECT_EQ(finished[i].stats.started_at,
                finished[i - 1].stats.finished_at);
    }
  }
}

}  // namespace
}  // namespace pinsim::os
