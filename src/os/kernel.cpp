// Core scheduling: dispatch, charging, slice boundaries, and the host's
// costs and effects for the shared action protocol.
#include "os/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace pinsim::os {

Kernel::Kernel(sim::Engine& engine, const hw::Topology& topology,
               const hw::CostModel& costs, Rng rng)
    : engine_(&engine),
      topology_(&topology),
      costs_(&costs),
      cache_model_(topology, costs),
      rng_(rng) {
  const auto n = static_cast<std::size_t>(topology.num_cpus());
  current_.resize(n, nullptr);
  rq_.resize(n);
  charged_until_.resize(n, 0);
  slice_started_.resize(n, 0);
  slice_length_.resize(n, 0);
  boundary_.reserve(n);
  for (int cpu = 0; cpu < topology.num_cpus(); ++cpu) {
    boundary_.push_back(engine_->make_timer([this, cpu] { on_boundary(cpu); }));
  }
  housekeeping_ = engine_->make_timer([this] { housekeeping_tick(); });
  idle_socket_.resize(static_cast<std::size_t>(topology.sockets()));
  for (int cpu = 0; cpu < topology.num_cpus(); ++cpu) {
    refresh_cpu_masks(cpu);  // everything starts idle
  }
}

void Kernel::refresh_cpu_masks(hw::CpuId cpu) {
  const auto i = static_cast<std::size_t>(cpu);
  auto& socket_idle =
      idle_socket_[static_cast<std::size_t>(topology_->socket_of(cpu))];
  if (current_[i] != nullptr) {
    busy_.add(cpu);
  } else {
    busy_.remove(cpu);
  }
  if (rq_[i].empty()) {
    queued_.remove(cpu);
  } else {
    queued_.add(cpu);
  }
  if (current_[i] == nullptr && rq_[i].empty()) {
    idle_.add(cpu);
    socket_idle.add(cpu);
  } else {
    idle_.remove(cpu);
    socket_idle.remove(cpu);
  }
}

Kernel::~Kernel() = default;

Cgroup& Kernel::create_cgroup(Cgroup::Config config) {
  return cgroups_.create(std::move(config), topology_->all_cpus(), *costs_);
}

Task& Kernel::create_task(std::string name,
                          std::unique_ptr<TaskDriver> driver,
                          TaskConfig config) {
  PINSIM_CHECK_MSG(config.cgroup == nullptr || cgroups_.owns(*config.cgroup),
                   "task " << name << " joins another kernel's cgroup");
  return tasks_.create(std::move(name), std::move(driver), std::move(config),
                       topology_->all_cpus());
}

void Kernel::start_task(Task& task) {
  tasks_.start(task, now());
  reserve_runqueues(tasks_.live(), static_cast<int>(rq_.size()),
                    &rq_reserved_, [this](int cpu) -> Runqueue& {
                      return rq_[static_cast<std::size_t>(cpu)];
                    });
  task.overhead_debt += costs_->sched_pick;  // fork/exec placement work
  hw::CpuId hint = -1;
  if (task.device_local_start) {
    // The request was accepted in the device's softirq context; the new
    // process starts near that cpu.
    hint = irq_target(task);
  }
  const hw::CpuId cpu = place_task(task, hint);
  task.vruntime = rq_[static_cast<std::size_t>(cpu)].min_vruntime();
  ensure_housekeeping();
  enqueue_task(task, cpu);
}

void Kernel::add_observer(SchedObserver& observer) {
  observers_.push_back(&observer);
}

bool Kernel::run_until_quiescent(SimTime horizon) {
  return engine_->run_until([this] { return tasks_.live() == 0; }, horizon);
}

double Kernel::numa_slowdown(const Task& task, hw::CpuId cpu) const {
  if (task.numa_home == nullptr || *task.numa_home < 0) return 1.0;
  return topology_->socket_of(cpu) == *task.numa_home
             ? 1.0
             : 1.0 + costs_->numa_remote_tax;
}

SimDuration Kernel::remaining_cost_on(const Task& task,
                                      hw::CpuId cpu) const {
  const double slow = numa_slowdown(task, cpu);
  return task.overhead_debt +
         static_cast<SimDuration>(
             std::llround(static_cast<double>(task.burst_remaining) * slow));
}

void Kernel::dispatch(hw::CpuId cpu) {
  const auto i = static_cast<std::size_t>(cpu);
  PINSIM_CHECK(current_[i] == nullptr);
  if (rq_[i].empty()) {
    steal_for(cpu);
  }
  Task* next = pop_runnable(rq_[i], cpu);
  if (next == nullptr) {
    boundary_[i].cancel();
    refresh_cpu_masks(cpu);
    return;  // idle
  }

  Task& task = *next;
  ++stats_.context_switches;
  ++task.stats.context_switches;
  notify([&](SchedObserver& o) { o.on_context_switch(cpu); });
  task.overhead_debt += costs_->context_switch;
  // Usage tracking for grouped tasks runs at every scheduling event
  // (paper §IV-B: each cgroups invocation is a kernel-space transition).
  if (task.cgroup != nullptr) task.overhead_debt += costs_->cgroup_account;

  if (task.last_cpu != cpu) {
    const SimDuration penalty = cache_model_.migration_penalty(
        task.last_cpu, cpu, task.working_set_mb, task.io_active);
    if (task.last_cpu >= 0) {
      ++stats_.migrations;
      ++task.stats.migrations;
      if (topology_->distance(task.last_cpu, cpu) ==
          hw::CpuDistance::CrossSocket) {
        ++stats_.cross_socket_migrations;
      }
      notify([&](SchedObserver& o) {
        o.on_migration(task, task.last_cpu, cpu, penalty);
      });
    }
    task.overhead_debt += penalty;
    stats_.migration_penalty_total += penalty;
  }

  task.stats.wait_time += now() - task.enqueued_at;
  task.last_cpu = cpu;
  // First-touch NUMA: the process's memory home is the socket where its
  // first thread runs.
  if (task.numa_home != nullptr && *task.numa_home < 0) {
    *task.numa_home = topology_->socket_of(cpu);
  }
  task.state = TaskState::Running;
  current_[i] = &task;
  charged_until_[i] = now();
  slice_started_[i] = now();
  slice_length_[i] = slice_for(cpu);
  // Masks must be current before advance_actions: the task may post a
  // message whose wakeup placement reads them.
  refresh_cpu_masks(cpu);

  if (remaining_cost(task) == 0) {
    if (!advance_actions(cpu, task)) {
      current_[i] = nullptr;
      dispatch(cpu);
      return;
    }
  }
  reprogram(cpu);
}

void Kernel::charge_running(hw::CpuId cpu) {
  const auto i = static_cast<std::size_t>(cpu);
  Task* task = current_[i];
  if (task == nullptr) {
    charged_until_[i] = now();
    return;
  }
  const SimDuration elapsed = now() - charged_until_[i];
  PINSIM_CHECK(elapsed >= 0);
  if (elapsed == 0) return;
  charged_until_[i] = now();
  // On a NUMA-remote socket the same wall time advances the burst more
  // slowly; the shortfall is remote-access stall time. A cgroup
  // throttle is enforced lazily at the next boundary/dispatch.
  charge_task(task, cpu, elapsed, numa_slowdown(*task, cpu));
}

void Kernel::reprogram(hw::CpuId cpu) {
  const auto i = static_cast<std::size_t>(cpu);
  Task* task = current_[i];
  if (task == nullptr) {
    boundary_[i].cancel();
    return;
  }
  const SimDuration until_slice =
      slice_started_[i] + slice_length_[i] - now();
  const SimDuration cost = remaining_cost_on(*task, cpu);
  PINSIM_CHECK_MSG(cost > 0, "running task with nothing to do: "
                                 << task->name());
  SimDuration next = cost;
  if (until_slice < next) next = std::max<SimDuration>(until_slice, 1);
  if (task->cgroup != nullptr && task->cgroup->has_quota()) {
    // Quota-governed tasks account at fine granularity and never run past
    // the group's remaining runtime, so bandwidth is enforced exactly.
    next = std::min(next, costs_->cgroup_aggregate_interval);
    const SimDuration horizon = task->cgroup->runtime_horizon(cpu);
    next = std::min(next, std::max<SimDuration>(horizon, 1));
  }
  boundary_[i].arm(now() + next);
}

// The single most-fired callback in the simulator: every slice
// boundary on every cpu lands here. It and everything it calls
// allocate nothing in steady state (tests/alloc/ counts it).
void Kernel::on_boundary(hw::CpuId cpu) {
  const auto i = static_cast<std::size_t>(cpu);
  Task* task = current_[i];
  PINSIM_CHECK(task != nullptr);
  charge_running(cpu);

  if (task->cgroup != nullptr && task->cgroup->throttled_on(cpu)) {
    notify([&](SchedObserver& o) {
      o.on_slice(*task, cpu, now() - slice_started_[i]);
    });
    ++stats_.throttle_events;
    notify([&](SchedObserver& o) { o.on_throttle(*task->cgroup); });
    task->cgroup->park(*task);
    current_[i] = nullptr;
    dispatch(cpu);
    return;
  }

  if (remaining_cost(*task) == 0) {
    if (!advance_actions(cpu, *task)) {
      current_[i] = nullptr;
      dispatch(cpu);
      return;
    }
  }

  if (now() >= slice_started_[i] + slice_length_[i]) {
    if (!rq_[i].empty()) {
      stop_running(cpu, /*requeue=*/true);
      dispatch(cpu);
      return;
    }
    // Alone on the cpu: start a fresh slice window.
    slice_started_[i] = now();
    slice_length_[i] = slice_for(cpu);
  }
  reprogram(cpu);
}

void Kernel::stop_running(hw::CpuId cpu, bool requeue) {
  const auto i = static_cast<std::size_t>(cpu);
  Task* task = current_[i];
  PINSIM_CHECK(task != nullptr);
  notify([&](SchedObserver& o) {
    o.on_slice(*task, cpu, now() - slice_started_[i]);
  });
  ++stats_.preemptions;
  current_[i] = nullptr;
  if (requeue) os::requeue(*task, rq_[i], cpu, now());
  refresh_cpu_masks(cpu);
}

bool Kernel::advance_actions(hw::CpuId cpu, Task& task) {
  const auto i = static_cast<std::size_t>(cpu);
  return run_actions(
      task, now(), costs_->spin_poll_chunk,
      [&](Task& to, int count) { deliver(task, to, count); },
      [&](const Action& io) { submit_io(task, io); },
      [&](SimDuration duration) {
        Task* woken = &task;
        engine_->schedule_detached(duration,
                                   [this, woken] { wake_common(*woken, 0); });
      },
      [&] {
        notify([&](SchedObserver& o) {
          o.on_slice(task, cpu, now() - slice_started_[i]);
        });
      },
      [&] {
        tasks_.retire(task, now());
        tasks_.run_on_exit(task);
      });
}

void Kernel::deliver(Task& from, Task& to, int count) {
  // Host-mediated IPC: syscall + wake chain per message, paid by the
  // sender. (The guest kernel charges its own cost for intra-VM messages.)
  from.overhead_debt += costs_->host_ipc * count;
  if (from.cgroup != nullptr && from.cgroup == to.cgroup) {
    // Intra-container traffic crosses the bridge network path and raises
    // a softirq on some host cpu.
    from.overhead_debt += costs_->container_net_msg * count;
    charge_irq(irq_rr_ = (irq_rr_ + 1) % topology_->num_cpus());
  }
  if (accept_messages(to, count)) {
    // The wakeup originates on the sender's cpu.
    wake_common(to, 0, from.last_cpu);
  }
}

void Kernel::post_external(Task& task, int count) {
  if (!accept_messages(task, count)) return;
  // External messages arrive through the NIC: the wake originates on
  // whichever cpu took the interrupt.
  const hw::CpuId irq_cpu = irq_target(task);
  charge_irq(irq_cpu);
  wake_common(task, costs_->kernel_entry, irq_cpu);
}

void Kernel::post_local(Task& task, int count) {
  if (accept_messages(task, count)) {
    wake_common(task, costs_->kernel_entry, task.last_cpu);
  }
}

}  // namespace pinsim::os
