// Busy-polling receive semantics (MPI-style spin-wait).
#include <gtest/gtest.h>

#include <memory>

#include "hw/topology.hpp"
#include "os/kernel.hpp"
#include "sim/engine.hpp"

namespace pinsim::os {
namespace {

struct Harness {
  explicit Harness(int cpus, std::uint64_t seed = 1)
      : topology(1, cpus, 1, 16.0),
        kernel(engine, topology, costs, Rng(seed)) {}
  sim::Engine engine;
  hw::Topology topology;
  hw::CostModel costs;
  Kernel kernel;
};

TEST(SpinRecvTest, SpinningTaskStaysOnCpuUntilMessageArrives) {
  Harness h(2);
  auto stage = std::make_shared<int>(0);
  Task& waiter = h.kernel.create_task(
      "spinner", std::make_unique<LambdaDriver>([stage](Task&) {
        return (*stage)++ == 0 ? Action::recv_spin() : Action::exit();
      }));
  h.kernel.start_task(waiter);
  h.engine.schedule_detached(msec(5), [&] { h.kernel.post_external(waiter); });
  ASSERT_TRUE(h.kernel.run_until_quiescent(sec(5)));
  // Spinning burns cpu: ~5 ms of poll time, no block time.
  EXPECT_GE(waiter.stats.cpu_time, msec(4));
  EXPECT_EQ(waiter.stats.block_time, 0);
  // The poll is overhead, not work.
  EXPECT_GE(waiter.stats.overhead_paid, msec(4));
  EXPECT_EQ(waiter.stats.work_done, 0);
}

TEST(SpinRecvTest, MessageBeforeSpinConsumedImmediately) {
  Harness h(1);
  auto stage = std::make_shared<int>(0);
  Task& waiter = h.kernel.create_task(
      "ready", std::make_unique<LambdaDriver>([stage](Task&) {
        return (*stage)++ == 0 ? Action::recv_spin() : Action::exit();
      }));
  waiter.pending_msgs = 1;  // delivered before the task ever runs
  h.kernel.start_task(waiter);
  ASSERT_TRUE(h.kernel.run_until_quiescent(sec(1)));
  EXPECT_LT(waiter.stats.cpu_time, msec(1));
}

TEST(SpinRecvTest, SpinConsumesCgroupQuota) {
  // A spinning rank inside a container burns its quota — the mechanism
  // behind containerized MPI throttling (fig. 4).
  Harness h(4);
  Cgroup& group = h.kernel.create_cgroup({"mpi", 1.0, {}});
  TaskConfig config;
  config.cgroup = &group;
  auto stage = std::make_shared<int>(0);
  Task& waiter = h.kernel.create_task(
      "rank", std::make_unique<LambdaDriver>([stage](Task&) {
        return (*stage)++ == 0 ? Action::recv_spin() : Action::exit();
      }),
      config);
  h.kernel.start_task(waiter);
  h.engine.schedule_detached(msec(50), [&] { h.kernel.post_external(waiter); });
  ASSERT_TRUE(h.kernel.run_until_quiescent(sec(5)));
  EXPECT_GE(group.stats().usage, msec(45));
}

TEST(SpinRecvTest, SpinningTaskIsPreemptible) {
  // One cpu, a spinner and a compute task: fair sharing must still let
  // the compute task finish while the spinner polls.
  Harness h(1);
  auto stage = std::make_shared<int>(0);
  Task& spinner = h.kernel.create_task(
      "spinner", std::make_unique<LambdaDriver>([stage](Task&) {
        return (*stage)++ == 0 ? Action::recv_spin() : Action::exit();
      }));
  auto done = std::make_shared<bool>(false);
  Task& worker = h.kernel.create_task(
      "worker", std::make_unique<LambdaDriver>([done](Task&) {
        if (*done) return Action::exit();
        *done = true;
        return Action::compute(msec(30));
      }));
  h.kernel.start_task(spinner);
  h.kernel.start_task(worker);
  h.engine.schedule_detached(msec(100),
                             [&] { h.kernel.post_external(spinner); });
  ASSERT_TRUE(h.kernel.run_until_quiescent(sec(5)));
  // The worker ran despite the spinner: finished well before the post.
  EXPECT_LT(worker.stats.finished_at, msec(95));
  // And the spinner was preempted at least once.
  EXPECT_GT(spinner.stats.context_switches, 1);
}

TEST(SpinRecvTest, BlockingRecvStillBlocks) {
  Harness h(1);
  auto stage = std::make_shared<int>(0);
  Task& waiter = h.kernel.create_task(
      "blocker", std::make_unique<LambdaDriver>([stage](Task&) {
        return (*stage)++ == 0 ? Action::recv() : Action::exit();
      }));
  h.kernel.start_task(waiter);
  h.engine.schedule_detached(msec(5), [&] { h.kernel.post_external(waiter); });
  ASSERT_TRUE(h.kernel.run_until_quiescent(sec(1)));
  EXPECT_GE(waiter.stats.block_time, msec(4));
  EXPECT_LT(waiter.stats.cpu_time, msec(1));
}

}  // namespace
}  // namespace pinsim::os
