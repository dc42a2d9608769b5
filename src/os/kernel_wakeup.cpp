// Wakeup placement, IO submission/completion, and interrupt handling.
//
// Placement policy is where vanilla and pinned platforms diverge:
//  - sticky tasks (pinned platforms) return to their previous cpu even if
//    it is busy — IO affinity beats load balance;
//  - everyone else prefers the previous cpu when idle, then an idle cpu
//    near the previous one, then the least-loaded allowed cpu, with
//    random tie-breaking — which is what scatters a vanilla container
//    across all 112 host cores.
#include "os/kernel.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pinsim::os {

hw::CpuId Kernel::place_task(Task& task, hw::CpuId hint) {
  const hw::CpuSet allowed = allowed_cpus(task);
  const hw::CpuId prev = task.last_cpu;

  if (task.sticky_wakeup && prev >= 0 && allowed.contains(prev)) {
    return prev;
  }
  // wake_affine: with a locality hint (the IRQ handler's or the message
  // poster's cpu), the scheduler pulls the wakee toward the hint's LLC
  // domain; the previous cpu only wins when it shares that domain.
  const int affine_socket =
      hint >= 0 ? topology_->socket_of(hint)
                : (prev >= 0 ? topology_->socket_of(prev) : -1);
  const bool prev_idle =
      prev >= 0 && allowed.contains(prev) && idle_.contains(prev);
  if (prev_idle &&
      (affine_socket < 0 || topology_->socket_of(prev) == affine_socket)) {
    return prev;
  }

  // Idle cpus, preferring the affine socket: mask intersections over
  // the incrementally-maintained idle masks plus one uniform pick. The
  // candidate sets — and the single uniform draw over each, in
  // ascending cpu order — are exactly the historical ones, so the RNG
  // stream (and with it every figure) is unchanged.
  if (affine_socket >= 0) {
    const hw::CpuId near = pick_uniform(
        allowed & idle_socket_[static_cast<std::size_t>(affine_socket)],
        rng_);
    if (near >= 0) return near;
  }
  if (prev_idle) return prev;
  hw::CpuSet idle_far = allowed & idle_;
  if (affine_socket >= 0) {
    // Every idle cpu of the affine socket is in its idle mask, so this
    // subtracts exactly the near candidates handled above.
    idle_far =
        idle_far & ~idle_socket_[static_cast<std::size_t>(affine_socket)];
  }
  const hw::CpuId far = pick_uniform(idle_far, rng_);
  if (far >= 0) return far;

  // No idle cpu: like wake_affine, choose only between the previous cpu
  // (cache-warm) and the waker's (hint), whichever queues shorter —
  // never a random scatter, which would turn every busy wakeup into a
  // cache refill.
  const bool prev_ok = prev >= 0 && allowed.contains(prev);
  const bool hint_ok = hint >= 0 && allowed.contains(hint);
  if (prev_ok && hint_ok) {
    return load_of(hint) < load_of(prev) ? hint : prev;
  }
  if (prev_ok) return prev;
  if (hint_ok) return hint;

  // Fresh task with no history: least loaded, random among ties.
  return pick_least_loaded(
      allowed, [this](hw::CpuId cpu) { return load_of(cpu); }, rng_);
}

void Kernel::enqueue_task(Task& task, hw::CpuId cpu) {
  const auto i = static_cast<std::size_t>(cpu);
  if (task.cgroup != nullptr && task.cgroup->throttled_on(cpu)) {
    task.cgroup->park(task);
    return;
  }
  requeue(task, rq_[i], cpu, now());
  refresh_cpu_masks(cpu);

  if (current_[i] == nullptr) {
    dispatch(cpu);
    return;
  }
  // Wakeup preemption: mark the running slice expired; the boundary event
  // (rescheduled to fire immediately) performs the switch. Doing it via
  // the boundary keeps this safe even when the wakeup happens while the
  // running task is mid-action (e.g. it posted the message).
  Task& running = *current_[i];
  if (running.vruntime - task.vruntime > kWakeupPreemptGranularity) {
    charge_running(cpu);
    slice_length_[i] = now() - slice_started_[i];
    // The running task may be mid-action (it might be the waker) with no
    // outstanding cost; its caller reprograms after choosing the next
    // action, and the expired slice then takes effect.
    if (remaining_cost(running) > 0) reprogram(cpu);
  }
}

void Kernel::wake_common(Task& task, SimDuration extra_debt,
                         hw::CpuId hint) {
  const SimDuration blocked = account_wake(task, now());
  ++stats_.wakeups;
  notify([&](SchedObserver& o) { o.off_cpu(task, blocked); });

  task.overhead_debt += costs_->sched_pick + costs_->kernel_entry + extra_debt;
  // Grouped tasks pay usage tracking on every scheduling event — one
  // user->kernel transition per cgroups invocation (paper §IV-B).
  if (task.cgroup != nullptr) task.overhead_debt += costs_->cgroup_account;
  // Cache-hot wakeup (wake_affine): after a short block the previous cpu
  // still holds the task's state — ignore the waker locality hint.
  if (blocked < costs_->cache_hot_window) hint = -1;
  const hw::CpuId cpu = place_task(task, hint);
  sleeper_floor(task, rq_[static_cast<std::size_t>(cpu)]);
  enqueue_task(task, cpu);
}

void Kernel::submit_io(Task& task, const Action& action) {
  Task* waiter = &task;
  action.device->submit(action.request,
                        [this, waiter] { io_complete(*waiter); });
}

hw::CpuId Kernel::irq_target(const Task& task) {
  // Pinned platforms steer device interrupts to the cpu the waiting task
  // last ran on (IRQ affinity set alongside the cpuset). The default is
  // the device's own (stable) IRQ affinity: round-robin over its queue
  // cpus, which all live on the first socket — so lightly loaded tasks
  // gravitate there and stay cache/NUMA-local, while an overloaded small
  // container spills across sockets and pays for it.
  const hw::CpuSet allowed = allowed_cpus(task);
  const bool pinned = allowed.count() < topology_->num_cpus();
  if (pinned && task.last_cpu >= 0 && allowed.contains(task.last_cpu)) {
    return task.last_cpu;
  }
  const int device_cpus = topology_->socket_cpus(0).count();
  irq_rr_ = (irq_rr_ + 1) % device_cpus;
  return irq_rr_;
}

void Kernel::charge_irq(hw::CpuId cpu) {
  ++stats_.irqs;
  notify([&](SchedObserver& o) { o.on_irq(cpu); });
  const auto i = static_cast<std::size_t>(cpu);
  if (current_[i] != nullptr) {
    // The handler steals time from whatever runs on the interrupted cpu.
    charge_running(cpu);
    current_[i]->overhead_debt += costs_->irq_service + costs_->kernel_entry;
    reprogram(cpu);
  }
}

void Kernel::io_complete(Task& task) {
  const hw::CpuId irq_cpu = irq_target(task);
  charge_irq(irq_cpu);
  // IO return path: interrupt bottom half + syscall return. The wakeup
  // originates on the IRQ cpu (wake_affine pulls the task toward it).
  wake_common(task, costs_->kernel_entry, irq_cpu);
}

}  // namespace pinsim::os
