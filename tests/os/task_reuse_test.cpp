// A finished task's slot is reused: an executor's task table is bounded
// by the tasks it holds at once, not by the tasks it ever ran. Ids keep
// counting up, the finished tasks fold into exact totals, a TaskRef to
// a reused slot throws, and a message to a finished task is refused on
// both the host and the guest kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hw/topology.hpp"
#include "os/kernel.hpp"
#include "util/check.hpp"
#include "virt/instance_type.hpp"
#include "virt/vm.hpp"

namespace pinsim::os {
namespace {

/// The host kernel (two cpus, so four live tasks queue) or a VM's guest
/// kernel behind one interface.
struct Executor {
  virtual ~Executor() = default;
  virtual Task& create(std::string name, std::unique_ptr<TaskDriver> driver,
                       TaskConfig config) = 0;
  virtual void start(Task& task) = 0;
  virtual int live() = 0;
  virtual std::size_t slots() = 0;
  virtual const TaskTotals& totals() = 0;
  virtual sim::Engine& engine() = 0;
  virtual hw::IoDevice& disk() = 0;
};

struct HostExecutor final : Executor {
  HostExecutor() : host(hw::Topology(1, 2, 1, 16.0), hw::CostModel{}, 11) {}
  Task& create(std::string name, std::unique_ptr<TaskDriver> driver,
               TaskConfig config) override {
    return host.kernel().create_task(std::move(name), std::move(driver),
                                     std::move(config));
  }
  void start(Task& task) override { host.kernel().start_task(task); }
  int live() override { return host.kernel().live_tasks(); }
  std::size_t slots() override { return host.kernel().tasks().size(); }
  const TaskTotals& totals() override {
    return host.kernel().finished_totals();
  }
  sim::Engine& engine() override { return host.engine(); }
  hw::IoDevice& disk() override { return host.disk(); }

  virt::Host host;
};

struct GuestExecutor final : Executor {
  GuestExecutor()
      : host(hw::Topology::dell_r830(), hw::CostModel{}, 13),
        vm(host, virt::PlatformSpec{virt::PlatformKind::Vm,
                                    virt::CpuMode::Vanilla,
                                    virt::instance_by_name("Large")}) {}
  Task& create(std::string name, std::unique_ptr<TaskDriver> driver,
               TaskConfig config) override {
    return vm.guest().create_task(std::move(name), std::move(driver),
                                  std::move(config));
  }
  void start(Task& task) override { vm.guest().start_task(task); }
  int live() override { return vm.guest().live_tasks(); }
  std::size_t slots() override { return vm.guest().tasks().size(); }
  const TaskTotals& totals() override {
    return vm.guest().finished_totals();
  }
  sim::Engine& engine() override { return host.engine(); }
  hw::IoDevice& disk() override { return host.disk(); }

  virt::Host host;
  virt::VmPlatform vm;
};

/// A short request that touches every summed field: compute, a message
/// to itself and its receipt, a disk read, a sleep, compute, exit.
class ShortDriver final : public TaskDriver {
 public:
  ShortDriver(hw::IoDevice* disk, SimDuration work)
      : disk_(disk), work_(work) {}

  Action next(Task& task) override {
    switch (stage_++) {
      case 0:
        return Action::compute(work_);
      case 1:
        return Action::post(task);
      case 2:
        return Action::recv();
      case 3:
        return Action::io(*disk_, hw::IoRequest{hw::IoKind::Read, 4.0});
      case 4:
        return Action::sleep_for(usec(30));
      case 5:
        return Action::compute(usec(20));
      default:
        return Action::exit();
    }
  }

 private:
  hw::IoDevice* disk_;
  SimDuration work_;
  int stage_ = 0;
};

struct ChurnOutcome {
  int peak_live = 0;
  std::size_t peak_slots = 0;
  std::vector<Task::Id> ids;  // in creation order
  TaskTotals snapshot_sum;    // of the records read in the exit hooks
  int finished = 0;
};

/// 10,000 sequential short tasks, at most 4 live: each exit hook creates
/// the next task while it runs. The first task is held by a TaskRef and
/// by its address.
ChurnOutcome run_churn(Executor& ex, std::unique_ptr<TaskRef>* first,
                       const Task** first_address) {
  constexpr int kTotal = 10000;
  constexpr int kLive = 4;
  ChurnOutcome out;
  int created = 0;
  std::function<void()> spawn = [&] {
    const int i = created++;
    TaskConfig config;
    config.on_exit = [&](Task& task) {
      EXPECT_EQ(task.state, TaskState::Finished);
      const TaskStats& s = task.stats;
      TaskTotals& sum = out.snapshot_sum;
      sum.lifetime += s.finished_at - s.started_at;
      sum.cpu_time += s.cpu_time;
      sum.block_time += s.block_time;
      sum.wait_time += s.wait_time;
      sum.io_ops += s.io_ops;
      sum.messages_sent += s.messages_sent;
      ++out.finished;
      if (created < kTotal) spawn();
    };
    Task& task = ex.create(
        "r" + std::to_string(i),
        std::make_unique<ShortDriver>(&ex.disk(), usec(40 + 7 * (i % 5))),
        std::move(config));
    if (i == 0) {
      *first = std::make_unique<TaskRef>(task);
      *first_address = &task;
    }
    out.ids.push_back(task.id());
    ex.start(task);
    out.peak_live = std::max(out.peak_live, ex.live());
    out.peak_slots = std::max(out.peak_slots, ex.slots());
  };
  for (int i = 0; i < kLive; ++i) spawn();
  EXPECT_TRUE(ex.engine().run_until(
      [&] { return created == kTotal && ex.live() == 0; }, sec(600)));
  EXPECT_EQ(out.finished, kTotal);
  return out;
}

void expect_bounded_churn(Executor& ex) {
  std::unique_ptr<TaskRef> first;
  const Task* first_address = nullptr;
  const ChurnOutcome out = run_churn(ex, &first, &first_address);

  EXPECT_EQ(out.peak_live, 4);
  EXPECT_LE(out.peak_slots, static_cast<std::size_t>(out.peak_live) + 1);
  EXPECT_EQ(ex.slots(), out.peak_slots);
  ASSERT_EQ(out.ids.size(), 10000u);
  for (std::size_t i = 1; i < out.ids.size(); ++i) {
    EXPECT_LT(out.ids[i - 1], out.ids[i]);
  }

  const TaskTotals& totals = ex.totals();
  const TaskTotals& sum = out.snapshot_sum;
  EXPECT_EQ(totals.lifetime, sum.lifetime);
  EXPECT_EQ(totals.cpu_time, sum.cpu_time);
  EXPECT_EQ(totals.block_time, sum.block_time);
  EXPECT_EQ(totals.wait_time, sum.wait_time);
  EXPECT_EQ(totals.io_ops, sum.io_ops);
  EXPECT_EQ(totals.messages_sent, sum.messages_sent);
  EXPECT_EQ(totals.io_ops, 10000);
  EXPECT_EQ(totals.messages_sent, 10000);
  EXPECT_GT(totals.block_time, 0);
  EXPECT_GT(totals.wait_time, 0);

  // The first task's slot now holds a later task: the record is still a
  // Task (never freed), and the checked reference refuses it.
  EXPECT_GT(first_address->id(), 0);
  EXPECT_THROW(first->get(), InvariantViolation);
}

TEST(TaskReuseTest, HostKernelSlotsBoundedByLiveTasks) {
  HostExecutor ex;
  expect_bounded_churn(ex);
}

TEST(TaskReuseTest, GuestKernelSlotsBoundedByLiveTasks) {
  GuestExecutor ex;
  expect_bounded_churn(ex);
}

TEST(TaskReuseTest, TaskRefRefusesAFinishedTask) {
  HostExecutor ex;
  Task& task = ex.create(
      "once",
      std::make_unique<LambdaDriver>([](Task&) { return Action::exit(); }),
      {});
  const TaskRef ref(task);
  EXPECT_EQ(&ref.get(), &task);
  ex.start(task);
  EXPECT_TRUE(ex.host.kernel().run_until_quiescent());
  // Finished, slot not reused yet: the record is intact, the ref is not.
  EXPECT_EQ(task.state, TaskState::Finished);
  EXPECT_THROW(ref.get(), InvariantViolation);
}

/// `target` exits at once; the sender computes for 1 ms and then posts
/// to it.
void expect_post_to_finished_throws(Executor& ex) {
  Task& target = ex.create(
      "target",
      std::make_unique<LambdaDriver>([](Task&) { return Action::exit(); }),
      {});
  auto stage = std::make_shared<int>(0);
  Task& sender = ex.create(
      "sender",
      std::make_unique<LambdaDriver>([stage, &target](Task&) {
        switch ((*stage)++) {
          case 0:
            return Action::compute(msec(1));
          case 1:
            return Action::post(target);
          default:
            return Action::exit();
        }
      }),
      {});
  ex.start(target);
  ex.start(sender);
  EXPECT_THROW(
      ex.engine().run_until([&] { return ex.live() == 0; }, sec(10)),
      InvariantViolation);
  EXPECT_EQ(target.state, TaskState::Finished);
}

TEST(TaskReuseTest, HostPostToFinishedTaskThrows) {
  HostExecutor ex;
  expect_post_to_finished_throws(ex);
}

TEST(TaskReuseTest, GuestPostToFinishedTaskThrows) {
  GuestExecutor ex;
  expect_post_to_finished_throws(ex);
}

}  // namespace
}  // namespace pinsim::os
