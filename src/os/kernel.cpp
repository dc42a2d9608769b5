// Core scheduling: dispatch, charging, slice boundaries, and the host's
// costs and effects for the shared action protocol.
#include "os/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"

namespace pinsim::os {

Kernel::Kernel(sim::Engine& engine, const hw::Topology& topology,
               const hw::CostModel& costs, Rng rng, SchedParams params,
               std::string name)
    : engine_(&engine),
      topology_(&topology),
      costs_(&costs),
      cache_model_(topology, costs),
      rng_(rng),
      params_(params),
      name_(std::move(name)) {
  validate(params_);
  const auto n = static_cast<std::size_t>(topology.num_cpus());
  current_.resize(n, nullptr);
  rq_.resize(n);
  charged_until_.resize(n, 0);
  slice_started_.resize(n, 0);
  slice_length_.resize(n, 0);
  quiet_.resize(n, 0);
  quiet_b0_.resize(n, 0);
  quiet_land_.resize(n, 0);
  quiet_task_.resize(n, nullptr);
  quiet_burned_.resize(n, 0);
  solo_slice_ = slice_length(params_, 1);
  batch_domain_ = engine_->new_batch_domain();
  boundary_.reserve(n);
  for (int cpu = 0; cpu < topology.num_cpus(); ++cpu) {
    boundary_.push_back(engine_->make_timer(
        (batch_domain_ << 16) | static_cast<std::uint32_t>(cpu),
        [this, cpu] { on_boundary(cpu); }));
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
  // Only started, unfinished tasks can be queued, so the live count
  // bounds every runqueue. Reserving geometrically on that bound keeps
  // Runqueue::enqueue allocation-free on the hot path at O(live) memory
  // and amortized O(1) cost per spawn. Finished tasks stay in the task
  // table, so its size is no bound to reserve on.
  const auto live = static_cast<std::size_t>(tasks_.live());
  if (live > rq_reserved_) {
    rq_reserved_ = 2 * live;
    for (Runqueue& rq : rq_) rq.reserve(rq_reserved_);
  }
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

// A quiet cpu always has a running task, so dispatch (which requires
// current_ == nullptr) can never observe an open quiet window: every
// revocation path exits it before clearing current_.
// pinsim-lint: quiet-mutator
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

// Calls the funnel first; everything downstream (charge_up_to) then
// runs with the quiet window closed.
// pinsim-lint: quiet-mutator
void Kernel::charge_running(hw::CpuId cpu) {
  exit_quiet(cpu);
  charge_up_to(cpu, now());
}

void Kernel::charge_up_to(hw::CpuId cpu, SimTime t_end) {
  const auto i = static_cast<std::size_t>(cpu);
  Task* task = current_[i];
  if (task == nullptr) {
    charged_until_[i] = t_end;
    return;
  }
  const SimDuration elapsed = t_end - charged_until_[i];
  PINSIM_CHECK(elapsed >= 0);
  if (elapsed == 0) return;
  charged_until_[i] = t_end;
  // On a NUMA-remote socket the same wall time advances the burst more
  // slowly; the shortfall is remote-access stall time. A cgroup
  // throttle is enforced lazily at the next boundary/dispatch.
  charge_task(task, cpu, elapsed, numa_slowdown(*task, cpu));
}

void Kernel::exit_quiet(hw::CpuId cpu) {
  const auto i = static_cast<std::size_t>(cpu);
  if (!quiet_[i]) return;
  quiet_[i] = 0;
  // The invariant behind the fast-forward: nothing that could have
  // changed a scheduling decision happened while the window was open.
  // Every mutation path (wakeup enqueue, balance move, charge) exits
  // the window first, so at exit the core must still be running the
  // entry task, alone, ungrouped.
  Task* task = current_[i];
  PINSIM_CHECK_MSG(task == quiet_task_[i],
                   "quiet core " << cpu << " changed tasks mid-window");
  PINSIM_CHECK_MSG(rq_[i].empty(),
                   "quiet core " << cpu << " acquired queued work");
  PINSIM_CHECK_MSG(task->cgroup == nullptr,
                   "quiet core " << cpu << " running a grouped task");
  const SimTime b0 = quiet_b0_[i];
  const SimDuration L = solo_slice_;
  PINSIM_CHECK(now() <= quiet_land_[i]);
  std::int64_t skipped = 0;
  if (now() > b0) {
    // Replay the skipped pure-restart boundaries b_0..b_k (k the last
    // one strictly before now) as one lump charge — exact because the
    // entry predicate admits only weight-1.0, NUMA-local, ungrouped
    // tasks, for which chunked charging is associative. The slice
    // window is then the one the skip-free path would be in.
    const std::int64_t k = (now() - b0 - 1) / L;
    charge_up_to(cpu, b0 + k * L);
    slice_started_[i] = b0 + k * L;
    slice_length_[i] = L;
    skipped = k + 1;
  }
  quiet_burned_[i] = static_cast<std::uint8_t>(skipped == 0);
  engine_->note_boundaries_skipped(skipped);
  if (!boundary_[i].armed()) {
    // Landing: the parked timer itself fired (we are inside its
    // handle_boundary), which replays as a normal boundary at the last
    // restart instant before the task's real event.
    return;
  }
  // Revocation by a foreign event: put the timer where the skip-free
  // path would have it armed — the first boundary at or after now. The
  // timer currently sits parked at the last boundary before landing,
  // b0 + j_last*L; re-keying it to the instant it is already armed at
  // would burn a sequence number for nothing, so skip the no-op move.
  const std::int64_t j_last = (quiet_land_[i] - b0 - 1) / L;
  const SimTime target = b0 + skipped * L;  // == b0 when now() <= b0
  if (target != b0 + j_last * L) boundary_[i].arm(target);
}

// The quiet-window ENTRY point: reprogram is where quiet_ flips on.
// The CHECK below proves no window is already open when it runs.
// pinsim-lint: quiet-mutator
void Kernel::reprogram(hw::CpuId cpu) {
  const auto i = static_cast<std::size_t>(cpu);
  PINSIM_CHECK_MSG(!quiet_[i], "reprogram on a quiet core");
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
  } else if (params_.quiet_fast_forward && rq_[i].empty() &&
             !quiet_burned_[i] &&
             cost > until_slice && until_slice >= 1 &&
             task->cgroup == nullptr && task->weight == 1.0 &&
             (task->numa_home == nullptr ||
              *task->numa_home == topology_->socket_of(cpu))) {
    // Quiet-core fast-forward. Alone on the cpu with no group and more
    // work than slice, every boundary until the task's real event is a
    // pure slice restart: charge (exact in one lump for weight-1.0
    // NUMA-local ungrouped tasks), restart the solo slice, re-arm. Any
    // event that could change that — a wakeup enqueue, a balance move,
    // an IRQ charge — funnels through exit_quiet() first. So park the
    // timer at the last boundary before the event in one move and skip
    // the intermediate fires outright.
    const SimDuration L = solo_slice_;
    const std::int64_t j_last = (cost - until_slice - 1) / L;
    if (j_last >= 1) {
      quiet_[i] = 1;
      quiet_b0_[i] = now() + until_slice;
      quiet_land_[i] = now() + cost;
      quiet_task_[i] = task;
      engine_->note_quiet_window();
      boundary_[i].arm(now() + until_slice + j_last * L);
      return;
    }
  }
  boundary_[i].arm(now() + next);
}

// The single most-fired callback in the simulator (every slice
// boundary on every cpu lands here), so the whole reachable cone is
// held to the hot-path allocation rules.
// pinsim-lint: hot
void Kernel::on_boundary(hw::CpuId cpu) {
  handle_boundary(cpu);
  // Drain every same-instant peer boundary of this kernel without
  // paying a callback dispatch each: the engine pops matching entries
  // one at a time (so a handler that re-arms or cancels a peer's entry
  // is observed before that peer pops) and hands back the cpu id.
  int peer;
  while ((peer = engine_->pop_batched_peer(batch_domain_)) >= 0) {
    handle_boundary(static_cast<hw::CpuId>(peer));
  }
}

// A real boundary fire means the window already lapsed; charge_running
// (below) exits it before any slice bookkeeping is rewritten. The
// quiet_burned_ reset ahead of that call is the one write that happens
// first, and it only re-enables future quiet entry.
// pinsim-lint: quiet-mutator
void Kernel::handle_boundary(hw::CpuId cpu) {
  const auto i = static_cast<std::size_t>(cpu);
  Task* task = current_[i];
  PINSIM_CHECK(task != nullptr);
  // A boundary firing for real means the core survived a whole slice
  // since the last revocation, so quiet entry is worth trying again.
  quiet_burned_[i] = 0;
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
