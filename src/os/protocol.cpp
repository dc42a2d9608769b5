#include "os/protocol.hpp"

#include <functional>
#include <utility>

namespace pinsim::os {

Task& TaskTable::create(std::string name, std::unique_ptr<TaskDriver> driver,
                        TaskConfig config, const hw::CpuSet& cpus) {
  const Task::Id id = next_id_++;
  std::size_t slot = tasks_.size();
  if (free_.empty()) {
    tasks_.push_back(
        std::make_unique<Task>(id, std::move(name), std::move(driver)));
    on_exit_.emplace_back();
    // Sized with the table, so freeing a slot never allocates.
    free_.reserve(tasks_.capacity());
  } else {
    slot = free_.back();
    free_.pop_back();
    *tasks_[slot] = Task(id, std::move(name), std::move(driver));
  }
  Task& task = *tasks_[slot];
  task.slot_ = slot;
  task.affinity = config.affinity;
  if (!task.affinity.empty()) {
    PINSIM_CHECK_MSG(!(task.affinity & cpus).empty(),
                     "task " << task.name()
                             << " affinity disjoint from the executor's cpus");
  }
  task.working_set_mb = config.working_set_mb;
  task.compute_inflation = config.compute_inflation;
  task.numa_home = std::move(config.numa_home);
  task.device_local_start = config.device_local_start;
  if (config.cgroup != nullptr) {
    config.cgroup->add_member(task);
  }
  on_exit_[slot] = std::move(config.on_exit);
  ++unretired_;
  return task;
}

void TaskTable::start(Task& task, SimTime now) {
  PINSIM_CHECK_MSG(task.state == TaskState::Created,
                   "task " << task.name() << " started twice");
  ++live_;
  task.stats.started_at = now;
}

void TaskTable::retire(Task& task, SimTime now) {
  PINSIM_CHECK(task.state == TaskState::Running);
  task.state = TaskState::Finished;
  task.stats.finished_at = now;
  const TaskStats& s = task.stats;
  totals_.lifetime += s.finished_at - s.started_at;
  totals_.cpu_time += s.cpu_time;
  totals_.block_time += s.block_time;
  totals_.wait_time += s.wait_time;
  totals_.io_ops += s.io_ops;
  totals_.messages_sent += s.messages_sent;
  --live_;
  --unretired_;
  if (task.cgroup != nullptr) task.cgroup->remove_member(task);
  task.release_driver();
  task.numa_home.reset();
}

void TaskTable::run_on_exit(Task& task) {
  PINSIM_CHECK(task.state == TaskState::Finished);
  // Moved out first: the hook may create tasks, which can reallocate
  // on_exit_ while it runs. A move allocates nothing.
  const std::function<void(Task&)> on_exit =
      std::exchange(on_exit_[task.slot_], nullptr);
  if (on_exit) on_exit(task);
  // Freed only now, so a task the hook created took another slot.
  free_.push_back(task.slot_);
}

}  // namespace pinsim::os
