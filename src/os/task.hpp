// Tasks and their behaviour protocol.
//
// A Task is the schedulable entity — a thread from the executor's point of
// view. Its behaviour is supplied by a TaskDriver that yields Actions:
// compute bursts, IO, message sends/receives, sleeps, exit. The same Task
// and driver run unmodified under the host kernel (bare-metal, container)
// or a guest kernel inside a simulated VM — the executor decides what each
// action costs, which is exactly the paper's subject.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "hw/cpuset.hpp"
#include "hw/disk.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace pinsim::os {

class Task;
class Cgroup;

enum class TaskState {
  Created,    // not yet started
  Runnable,   // waiting in a runqueue
  Running,    // on a cpu
  Blocked,    // waiting for IO / message / sleep
  Throttled,  // dequeued by cgroup bandwidth control
  Finished
};

const char* to_string(TaskState state);

/// One step of task behaviour.
struct Action {
  enum class Kind { Compute, Io, Recv, Post, Sleep, Exit };

  Kind kind = Kind::Exit;
  /// Recv: busy-poll for the message instead of blocking (MPI-style
  /// user-space spinning; burns CPU — and cgroup quota — while waiting,
  /// but avoids the sleep/wake path entirely).
  bool spin = false;
  /// Compute: pure work in ns (bare-metal user-mode CPU time).
  SimDuration work = 0;
  /// Io: target device and request.
  hw::IoDevice* device = nullptr;
  hw::IoRequest request;
  /// Post: destination task (must belong to the same executor).
  Task* target = nullptr;
  /// Post: number of messages to deliver.
  int count = 1;
  /// Sleep: duration.
  SimDuration duration = 0;

  static Action compute(SimDuration work);
  static Action io(hw::IoDevice& device, hw::IoRequest request);
  /// Block until at least one message is pending, then consume one.
  static Action recv();
  /// Busy-poll until a message is pending, then consume one.
  static Action recv_spin();
  /// Deliver `count` messages to `target` and continue immediately.
  static Action post(Task& target, int count = 1);
  static Action sleep_for(SimDuration duration);
  static Action exit();
};

/// Supplies a task's next action. `next()` is called exactly when the
/// previous action has fully completed (compute charged, IO finished,
/// message received). A driver is owned by its task until the task
/// exits, when the task drops it.
class TaskDriver {
 public:
  virtual ~TaskDriver() = default;
  virtual Action next(Task& task) = 0;
};

struct TaskStats {
  SimDuration cpu_time = 0;       // host cpu time consumed (incl. overheads)
  SimDuration work_done = 0;      // pure work accomplished
  SimDuration overhead_paid = 0;  // debt paid (migrations, cgroups, vmexits…)
  SimDuration wait_time = 0;      // runnable, waiting for a cpu
  SimDuration block_time = 0;     // blocked on IO / messages / sleep
  std::int64_t migrations = 0;
  std::int64_t context_switches = 0;
  std::int64_t wakeups = 0;
  std::int64_t io_ops = 0;
  std::int64_t messages_sent = 0;
  SimTime started_at = -1;
  SimTime finished_at = -1;
};

class Task {
 public:
  using Id = std::int64_t;

  Task(Id id, std::string name, std::unique_ptr<TaskDriver> driver);

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  Id id() const { return id_; }
  const std::string& name() const { return name_; }
  /// The behaviour of a task that has not exited.
  TaskDriver& driver() {
    PINSIM_CHECK_MSG(driver_ != nullptr, "task " << name_ << " has exited");
    return *driver_;
  }
  /// Destroy the driver: the task has exited and asks for no more
  /// actions. Its record (id, name, state, stats) stays until its
  /// executor reuses the slot.
  void release_driver() { driver_.reset(); }

  // --- Fields owned by the executor. Kept public: Task is an internal
  // scheduler record, and the kernel manipulates these in concert; mirror
  // accessors would only add noise. External code should treat everything
  // below as read-only and use the stats() snapshot.
  TaskState state = TaskState::Created;
  SimDuration vruntime = 0;
  hw::CpuSet affinity;          // empty = all cpus of the executor
  Cgroup* cgroup = nullptr;

  /// Remaining executor-CPU time of the current compute burst.
  SimDuration burst_remaining = 0;
  /// Overhead owed before any real work progresses (migration refills,
  /// cgroup charges, vmexits, wakeup chains).
  SimDuration overhead_debt = 0;
  /// Cumulative executor-CPU time spent on compute bursts; work_done is
  /// derived from this so per-slice rounding never drifts.
  SimDuration burst_consumed = 0;
  /// Multiplier from pure work to executor CPU time (guest tasks carry
  /// the hypervisor's compute inflation).
  double compute_inflation = 1.0;

  hw::CpuId last_cpu = -1;
  double working_set_mb = 5.0;
  /// Shared memory-home socket (first-touch NUMA). All threads of a
  /// process share one; set to the first socket any of them runs on.
  /// Null = NUMA-exempt (e.g. vCPU threads, whose guest RAM policy is
  /// folded into the hypervisor calibration), and after the task exits.
  std::shared_ptr<int> numa_home;
  /// Set once the task performs IO; migrations then also pay the
  /// IO-channel re-establishment cost.
  bool io_active = false;

  /// Pending unconsumed messages (Recv blocks while 0).
  int pending_msgs = 0;
  /// True while the task is blocked inside a Recv action.
  bool recv_waiting = false;
  /// True while the task is busy-polling inside a spinning Recv.
  bool spin_recv = false;

  /// Pinned platforms wake their tasks on the previous cpu even when it
  /// is busy (IO affinity beats load balance); vanilla platforms let the
  /// scheduler spread wakeups.
  bool sticky_wakeup = false;

  /// Network-born tasks (one process per request) start on the device's
  /// softirq cpu rather than a random idle cpu — where accept() ran.
  bool device_local_start = false;

  // Executor bookkeeping timestamps.
  SimTime enqueued_at = 0;
  SimTime blocked_at = 0;
  /// Cpu whose runqueue currently holds this task (-1 when not queued).
  hw::CpuId queued_cpu = -1;

 private:
  // The back-pointers behind O(1) removal: only their owners write them.
  friend class Runqueue;
  friend class Cgroup;
  /// Slot index in the holding runqueue's heap (-1 when not queued).
  int rq_index_ = -1;
  /// Slot index in the cgroup's parked list (-1 when not parked).
  int park_index_ = -1;

 public:
  int park_index() const { return park_index_; }

  TaskStats stats;

 private:
  // A finished task's slot is reused in place: TaskTable move-assigns a
  // fresh Task over the record, so the object is never freed.
  friend class TaskTable;
  Task& operator=(Task&&) = default;
  /// Index in the executor's TaskTable.
  std::size_t slot_ = 0;

  Id id_;
  std::string name_;
  std::unique_ptr<TaskDriver> driver_;
};

/// A checked reference to a task, for holders that outlive one event
/// (an MPI rank table, a server pool). A Task& is valid until the task
/// finishes, and a later create may reuse its slot; task ids are never
/// reused, so the id kept here serves as the slot's generation. get()
/// throws InvariantViolation once the task has finished, whether or not
/// its slot holds a later task yet.
class TaskRef {
 public:
  explicit TaskRef(Task& task) : task_(&task), id_(task.id()) {}

  Task& get() const {
    PINSIM_CHECK_MSG(task_->id() == id_ &&
                         task_->state != TaskState::Finished,
                     "task " << id_ << " has finished");
    return *task_;
  }

 private:
  Task* task_;
  Task::Id id_;
};

/// Convenience driver built from a lambda: `fn(task)` returns the next
/// Action. Useful in tests and simple workloads.
class LambdaDriver final : public TaskDriver {
 public:
  using Fn = std::function<Action(Task&)>;
  explicit LambdaDriver(Fn fn) : fn_(std::move(fn)) {}
  Action next(Task& task) override { return fn_(task); }

 private:
  Fn fn_;
};

}  // namespace pinsim::os
