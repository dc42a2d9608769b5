// Placement, affinity, pinning, migration, and balancing behaviour.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "hw/topology.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"

namespace pinsim::os {
namespace {

/// Observer recording which cpus every slice ran on, per task id.
class SliceRecorder : public SchedObserver {
 public:
  void on_slice(const Task& task, int cpu, SimDuration) override {
    cpus_used.insert(cpu);
    per_task[task.id()].insert(cpu);
  }
  std::set<int> cpus_used;
  std::map<Task::Id, std::set<int>> per_task;
};

std::unique_ptr<TaskDriver> compute_once(SimDuration work) {
  auto state = std::make_shared<bool>(false);
  return std::make_unique<LambdaDriver>([state, work](Task&) {
    if (*state) return Action::exit();
    *state = true;
    return Action::compute(work);
  });
}

/// Driver alternating compute and sleep `iterations` times — forces many
/// wakeup placements.
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

TEST(KernelAffinityTest, AffinityNeverViolated) {
  sim::Engine engine;
  const hw::Topology topo = hw::Topology::dell_r830();
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(7));
  SliceRecorder recorder;
  kernel.add_observer(recorder);

  TaskConfig config;
  config.affinity = hw::CpuSet::of({3, 7, 11});
  for (int i = 0; i < 6; ++i) {
    Task& t = kernel.create_task(
        "pinned" + std::to_string(i),
        compute_sleep_loop(msec(2), msec(1), 20), config);
    kernel.start_task(t);
  }
  EXPECT_TRUE(kernel.run_until_quiescent());
  for (int cpu : recorder.cpus_used) {
    EXPECT_TRUE(config.affinity.contains(cpu))
        << "ran on cpu " << cpu << " outside affinity";
  }
}

TEST(KernelAffinityTest, CgroupCpusetNeverViolated) {
  sim::Engine engine;
  const hw::Topology topo = hw::Topology::dell_r830();
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(8));
  SliceRecorder recorder;
  kernel.add_observer(recorder);

  Cgroup& group =
      kernel.create_cgroup({"pinned-cn", 4.0, hw::CpuSet::first_n(4)});
  for (int i = 0; i < 8; ++i) {
    TaskConfig config;
    config.cgroup = &group;
    Task& t = kernel.create_task("w" + std::to_string(i),
                                 compute_once(msec(20)), config);
    kernel.start_task(t);
  }
  EXPECT_TRUE(kernel.run_until_quiescent());
  for (int cpu : recorder.cpus_used) {
    EXPECT_LT(cpu, 4) << "cgroup cpuset violated";
  }
}

TEST(KernelAffinityTest, VanillaWakeupsScatterAcrossHost) {
  sim::Engine engine;
  const hw::Topology topo = hw::Topology::dell_r830();
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(9));
  SliceRecorder recorder;
  kernel.add_observer(recorder);

  // Paper §IV-B: "OS scheduler allocates all available CPU cores of the
  // host machine to the CN process" — under contention, unpinned
  // sleep/wake tasks spread over the host.
  for (int i = 0; i < 64; ++i) {
    Task& t = kernel.create_task("v" + std::to_string(i),
                                 compute_sleep_loop(msec(2), msec(1), 30));
    kernel.start_task(t);
  }
  EXPECT_TRUE(kernel.run_until_quiescent());
  EXPECT_GT(recorder.cpus_used.size(), 40u);
}

TEST(KernelAffinityTest, StickyTasksReturnToPreviousCpu) {
  sim::Engine engine;
  const hw::Topology topo = hw::Topology::dell_r830();
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(10));
  SliceRecorder recorder;
  kernel.add_observer(recorder);

  TaskConfig config;
  config.affinity = hw::CpuSet::first_n(4);
  std::vector<Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    Task& t = kernel.create_task("s" + std::to_string(i),
                                 compute_sleep_loop(msec(1), msec(3), 25),
                                 config);
    t.sticky_wakeup = true;
    tasks.push_back(&t);
    kernel.start_task(t);
  }
  EXPECT_TRUE(kernel.run_until_quiescent());
  // Each sticky task should have effectively stayed on one cpu.
  for (Task* t : tasks) {
    EXPECT_LE(recorder.per_task[t->id()].size(), 2u);
    EXPECT_LE(t->stats.migrations, 2);
  }
}

TEST(KernelAffinityTest, MigrationsChargePenalty) {
  // IO tasks on a two-socket host: long blocks follow the device IRQ
  // hint to socket 0, migrating tasks that started on socket 1.
  sim::Engine engine;
  const hw::Topology topo(2, 4, 1, 16.0);
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(11));
  hw::IoDevice disk = hw::IoDevice::raid1_hdd(engine, Rng(12));
  for (int i = 0; i < 16; ++i) {
    auto n = std::make_shared<int>(0);
    auto io_next = std::make_shared<bool>(false);
    Task& t = kernel.create_task(
        "m" + std::to_string(i),
        std::make_unique<LambdaDriver>([&disk, n, io_next](Task&) {
          if (*n >= 15) return Action::exit();
          if (!*io_next) {
            *io_next = true;
            return Action::compute(msec(1));
          }
          *io_next = false;
          ++*n;
          return Action::io(disk, hw::IoRequest{hw::IoKind::Read, 4.0});
        }));
    kernel.start_task(t);
  }
  EXPECT_TRUE(kernel.run_until_quiescent());
  EXPECT_GT(kernel.stats().migrations, 0);
  EXPECT_GT(kernel.stats().migration_penalty_total, 0);
}

TEST(KernelAffinityTest, IdleStealingSpreadsQueuedWork) {
  sim::Engine engine;
  const hw::Topology topo(1, 4, 1, 16.0);
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(12));
  SliceRecorder recorder;
  kernel.add_observer(recorder);
  // Start 8 cpu-bound tasks at once; placement plus stealing/balancing
  // must end up using all 4 cpus, finishing in ~2x the single-task time.
  for (int i = 0; i < 8; ++i) {
    Task& t = kernel.create_task("q" + std::to_string(i),
                                 compute_once(msec(40)));
    kernel.start_task(t);
  }
  EXPECT_TRUE(kernel.run_until_quiescent());
  EXPECT_EQ(recorder.cpus_used.size(), 4u);
  EXPECT_LT(engine.now(), msec(95));
}

TEST(KernelAffinityTest, CrossSocketMigrationsCountedSeparately) {
  sim::Engine engine;
  const hw::Topology topo = hw::Topology::dell_r830();
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(13));
  for (int i = 0; i < 64; ++i) {
    Task& t = kernel.create_task("x" + std::to_string(i),
                                 compute_sleep_loop(msec(1), msec(1), 30));
    kernel.start_task(t);
  }
  EXPECT_TRUE(kernel.run_until_quiescent());
  EXPECT_LE(kernel.stats().cross_socket_migrations,
            kernel.stats().migrations);
}

TEST(KernelAffinityTest, DisjointAffinityRejected) {
  sim::Engine engine;
  const hw::Topology topo(1, 2, 1, 16.0);
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(14));
  TaskConfig config;
  config.affinity = hw::CpuSet::of({10, 11});  // host has cpus 0..1
  EXPECT_THROW(kernel.create_task("bad", compute_once(msec(1)), config),
               InvariantViolation);
}

TEST(KernelAffinityTest, NoAllowedCpusFailsAtPlacement) {
  // Affinity and cgroup cpuset each intersect the host but not each
  // other: start placement rejects the task, and so does wake placement
  // when the two part while the task sleeps. (The steal search tests
  // the throttle first, so these are the CHECK's sure call sites.)
  sim::Engine engine;
  const hw::Topology topo(1, 4, 1, 16.0);
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(15));
  Cgroup& group = kernel.create_cgroup({"cn", 0.0, hw::CpuSet::of({0, 1})});
  TaskConfig config;
  config.cgroup = &group;
  config.affinity = hw::CpuSet::of({2, 3});
  Task& never = kernel.create_task("never", compute_once(msec(1)), config);
  EXPECT_THROW(kernel.start_task(never), InvariantViolation);

  config.affinity = hw::CpuSet::of({1, 2});
  Task& sleeper = kernel.create_task(
      "sleeper", compute_sleep_loop(msec(1), msec(5), 2), config);
  kernel.start_task(sleeper);
  ASSERT_TRUE(engine.run_until(
      [&] { return sleeper.state == TaskState::Blocked; }, msec(10)));
  sleeper.affinity = hw::CpuSet::of({2, 3});
  EXPECT_THROW(engine.run(msec(20)), InvariantViolation);
}

TEST(KernelAffinityTest, TaskMayNotJoinAnotherKernelsCgroup) {
  sim::Engine engine;
  const hw::Topology topo(1, 2, 1, 16.0);
  hw::CostModel costs;
  Kernel kernel(engine, topo, costs, Rng(16));
  Kernel other(engine, topo, costs, Rng(17));
  Cgroup& foreign = other.create_cgroup({"cn", 1.0, {}});
  TaskConfig config;
  config.cgroup = &foreign;
  EXPECT_THROW(kernel.create_task("t", compute_once(msec(1)), config),
               InvariantViolation);
}

}  // namespace
}  // namespace pinsim::os
