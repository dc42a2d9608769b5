// The task-action protocol shared by the host and the guest kernel.
//
// Every platform runs the same task semantics and pays different costs
// at each level (paper §III-B): a Post lands in the target's message
// queue, a Recv consumes a message or blocks (or spins) until one
// arrives, and cpu time pays a task's overhead debt before it advances
// the compute burst. os::Kernel and virt::GuestKernel both call the one
// copy here. Each supplies only its cost and effect policy: the IPC
// cost of a Post, the IO path, how a sleeper is woken, the observer
// hook, and its finish-time bookkeeping.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hw/cpuset.hpp"
#include "os/cgroup.hpp"
#include "os/runqueue.hpp"
#include "os/task.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace pinsim::os {

struct TaskConfig {
  /// Allowed cpus; empty = all cpus of this kernel.
  hw::CpuSet affinity;
  Cgroup* cgroup = nullptr;
  double working_set_mb = 5.0;
  /// Multiplier from pure work to cpu time (used by the VM layer).
  double compute_inflation = 1.0;
  /// First-touch NUMA home shared with sibling threads; null = exempt.
  std::shared_ptr<int> numa_home;
  /// Start the task on the device IRQ domain (network-born requests).
  bool device_local_start = false;
  /// Invoked when the task exits (response-time collection).
  std::function<void(Task&)> on_exit;
};

/// What measure_profile reads of the tasks an executor has finished,
/// summed as each one retires: integer ns and counts, so the sums do
/// not depend on the order tasks finish in.
struct TaskTotals {
  SimDuration lifetime = 0;  // finished_at - started_at
  SimDuration cpu_time = 0;
  SimDuration block_time = 0;
  SimDuration wait_time = 0;
  std::int64_t io_ops = 0;
  std::int64_t messages_sent = 0;
};

/// An executor's task slots, their exit hooks, and how many tasks are
/// live (started, not yet finished) and unretired (created, not yet
/// finished). A finished task folds into totals(); after its exit hook
/// returns, its slot goes on a free list, and a later create
/// reinitialises that Task in place. So the table holds as many slots
/// as the executor ever had tasks at once (plus one per exit hook that
/// creates), not one per task it ever ran. Task ids keep counting up,
/// so a reused slot is told apart by its id (see TaskRef).
class TaskTable {
 public:
  /// A new task configured from `config`, in a free slot if there is
  /// one. A non-empty affinity must intersect `cpus`, the executor's
  /// cpu (or vCPU) range.
  Task& create(std::string name, std::unique_ptr<TaskDriver> driver,
               TaskConfig config, const hw::CpuSet& cpus);
  /// Created -> live: counts the task and stamps its start time.
  void start(Task& task, SimTime now);
  /// Running -> Finished: stamps the finish time, folds the task into
  /// totals(), drops it from the live count and from its cgroup, and
  /// destroys its driver and its NUMA home reference. The exit hook is
  /// the caller's to run (see run_on_exit), after its own finish-time
  /// bookkeeping.
  void retire(Task& task, SimTime now);
  /// Run the task's exit hook once and destroy it, then free the slot.
  /// The hook may create tasks on this executor; they never get the
  /// slot of the task whose hook is running. The caller must not touch
  /// the task afterwards.
  void run_on_exit(Task& task);

  int live() const { return live_; }
  /// Created and not yet retired: every task that may be a cgroup
  /// member (a task joins its group at create, before start).
  int unretired() const { return unretired_; }
  const TaskTotals& totals() const { return totals_; }
  /// Every slot: the created and live tasks, and the records of
  /// finished tasks whose slot no create has reused yet.
  const std::vector<std::unique_ptr<Task>>& tasks() const { return tasks_; }

 private:
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::function<void(Task&)>> on_exit_;  // parallel to tasks_
  std::vector<std::size_t> free_;  // slots of finished tasks
  Task::Id next_id_ = 0;
  int live_ = 0;
  int unretired_ = 0;
  TaskTotals totals_;
};

/// Running -> Blocked at `now`.
inline void block_task(Task& task, SimTime now) {
  PINSIM_CHECK(task.state == TaskState::Running);
  task.state = TaskState::Blocked;
  task.blocked_at = now;
}

/// Queue `count` messages on `to`, which must not have finished.
/// Returns true when that completes a blocking Recv: one message is
/// consumed and the caller must wake the task along its level's wake
/// path.
inline bool accept_messages(Task& to, int count) {
  PINSIM_CHECK(count >= 1);
  // A finished task's slot may already hold a later task.
  PINSIM_CHECK_MSG(to.state != TaskState::Finished,
                   "message posted to finished task " << to.name());
  to.pending_msgs += count;
  if (to.state != TaskState::Blocked || !to.recv_waiting) return false;
  to.recv_waiting = false;
  --to.pending_msgs;
  return true;
}

/// Charge `elapsed` of executor cpu time on `cpu` to `task`: overhead
/// debt is paid first, then the burst advances by the rest divided by
/// `slowdown` (the shortfall is stall time, booked as overhead). The
/// task's cgroup accounts the whole span and its accounting cost
/// becomes new debt; enforcing a throttle is the caller's business.
inline void charge_task(Task* task, hw::CpuId cpu, SimDuration elapsed,
                        double slowdown) {
  const SimDuration paid = std::min(task->overhead_debt, elapsed);
  task->overhead_debt -= paid;
  task->stats.overhead_paid += paid;
  const SimDuration worked = elapsed - paid;
  if (worked > 0) {
    SimDuration effective = static_cast<SimDuration>(
        std::llround(static_cast<double>(worked) / slowdown));
    effective = std::min(effective, task->burst_remaining);
    task->burst_remaining -= effective;
    task->burst_consumed += effective;
    task->stats.overhead_paid += worked - effective;
    task->stats.work_done = static_cast<SimDuration>(
        std::llround(static_cast<double>(task->burst_consumed) /
                     task->compute_inflation));
  }
  task->stats.cpu_time += elapsed;
  task->vruntime += elapsed;
  if (task->cgroup != nullptr) {
    const SimDuration accounting = task->cgroup->charge(cpu, elapsed);
    if (accounting > 0) task->overhead_debt += accounting;
  }
}

/// Pop `rq` in vruntime order until a task whose cgroup is not
/// throttled on `cpu` comes up, parking throttled candidates on the way
/// (lazy parking). Null when the queue runs dry.
inline Task* pop_runnable(Runqueue& rq, hw::CpuId cpu) {
  while (!rq.empty()) {
    Task& candidate = rq.pop_min();
    candidate.queued_cpu = -1;
    if (candidate.cgroup != nullptr && candidate.cgroup->throttled_on(cpu)) {
      candidate.cgroup->park(candidate);
      continue;
    }
    return &candidate;
  }
  return nullptr;
}

/// Zero-cost actions a driver may yield in a row before it is deemed
/// stuck.
inline constexpr int kActionGuard = 100000;

/// Ask `task`'s driver for actions until the task blocks, exits, or has
/// a compute burst to run. Returns true while the task stays on its
/// cpu. The level supplies the effects:
///   deliver(to, count)  the cost and wake path of a Post to a task of
///                       the same executor;
///   submit_io(action)   submit an Io to its device (the task blocks
///                       right after);
///   wake_after(d)       schedule the wake that ends a Sleep of d; it is
///                       queued before the task blocks;
///   left_cpu()          observer hook as the task leaves its cpu:
///                       after it blocks, or before it finishes;
///   exited()            the level's exit bookkeeping.
template <class Deliver, class SubmitIo, class WakeAfter, class LeftCpu,
          class Exited>
bool run_actions(Task& task, SimTime now, SimDuration spin_poll_chunk,
                 Deliver&& deliver, SubmitIo&& submit_io,
                 WakeAfter&& wake_after, LeftCpu&& left_cpu,
                 Exited&& exited) {
  // Busy-polling receive: burn another poll chunk unless the message
  // arrived, in which case the Recv completes and the driver proceeds.
  if (task.spin_recv) {
    if (task.pending_msgs == 0) {
      task.overhead_debt += spin_poll_chunk;
      return true;
    }
    task.spin_recv = false;
    --task.pending_msgs;
  }
  for (int guard = 0; guard < kActionGuard; ++guard) {
    const Action action = task.driver().next(task);
    switch (action.kind) {
      case Action::Kind::Compute:
        if (action.work == 0) continue;
        task.burst_remaining = static_cast<SimDuration>(
            static_cast<double>(action.work) * task.compute_inflation);
        return true;
      case Action::Kind::Post:
        PINSIM_CHECK(action.target != nullptr);
        task.stats.messages_sent += action.count;
        deliver(*action.target, action.count);
        continue;
      case Action::Kind::Recv:
        if (task.pending_msgs > 0) {
          --task.pending_msgs;
          continue;
        }
        if (action.spin) {
          task.spin_recv = true;
          task.overhead_debt += spin_poll_chunk;
          return true;
        }
        task.recv_waiting = true;
        break;
      case Action::Kind::Io:
        PINSIM_CHECK(action.device != nullptr);
        task.io_active = true;
        ++task.stats.io_ops;
        submit_io(action);
        break;
      case Action::Kind::Sleep:
        wake_after(action.duration);
        break;
      case Action::Kind::Exit:
        left_cpu();
        exited();
        return false;
    }
    // Recv, Io and Sleep block the task.
    block_task(task, now);
    left_cpu();
    return false;
  }
  PINSIM_CHECK_MSG(false, "driver for " << task.name() << " spun "
                                        << kActionGuard
                                        << " zero-cost actions");
  return false;
}

}  // namespace pinsim::os
