#include "virt/guest.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "virt/platform.hpp"

namespace pinsim::virt {

namespace {

/// Upper bound on one execution grant; keeps guest IO latency and
/// intra-guest wakeup latency at sub-slice granularity.
constexpr SimDuration kBurstCap = msec(4);

}  // namespace

GuestKernel::GuestKernel(Host& host, int vcpus)
    : host_(&host),
      rng_(host.fork_rng()),
      vcpus_(static_cast<std::size_t>(vcpus)) {
  PINSIM_CHECK(vcpus >= 1);
  PINSIM_CHECK(vcpus <= hw::CpuSet::kMaxCpus);
  PINSIM_CHECK(host.costs().guest_compute_inflation >= 1.0);
  all_vcpus_ = hw::CpuSet::first_n(vcpus);
  idle_ = all_vcpus_;  // every vCPU starts idle
  housekeeping_ = host.engine().make_timer([this] { housekeeping_tick(); });
}

void GuestKernel::attach_vcpu_task(int vcpu, os::Task& host_task) {
  auto& v = vcpus_[static_cast<std::size_t>(vcpu)];
  PINSIM_CHECK(v.host_task == nullptr);
  v.host_task = &host_task;
}

os::Cgroup& GuestKernel::create_cgroup(os::Cgroup::Config config) {
  return cgroups_.create(std::move(config), all_vcpus_, host_->costs());
}

os::Task& GuestKernel::create_task(std::string name,
                                   std::unique_ptr<os::TaskDriver> driver,
                                   os::TaskConfig config) {
  // Affinity is over vCPU ids. The platform layer folds the hypervisor's
  // inflation into config.compute_inflation (scaled by workload
  // sensitivity).
  PINSIM_CHECK_MSG(config.cgroup == nullptr || cgroups_.owns(*config.cgroup),
                   "task " << name << " joins another kernel's cgroup");
  return tasks_.create(std::move(name), std::move(driver), std::move(config),
                       all_vcpus_);
}

void GuestKernel::start_task(os::Task& task) {
  tasks_.start(task, host_->engine().now());
  os::reserve_runqueues(tasks_.live(), vcpus(), &rq_reserved_,
                        [this](int vcpu) -> os::Runqueue& {
                          return vcpus_[static_cast<std::size_t>(vcpu)].rq;
                        });
  task.overhead_debt += host_->costs().sched_pick;
  ensure_housekeeping();
  const int vcpu = place_task(task);
  task.vruntime = vcpus_[static_cast<std::size_t>(vcpu)].rq.min_vruntime();
  enqueue_task(task, vcpu);
}

void GuestKernel::post_external(os::Task& task, int count) {
  if (os::accept_messages(task, count)) {
    // Network packet into the guest: one injection (vmexit path) plus
    // the guest-side wake chain.
    wake(task, host_->costs().kernel_entry);
  }
}

void GuestKernel::wake(os::Task& task, SimDuration extra_debt) {
  os::account_wake(task, host_->engine().now());
  task.overhead_debt +=
      host_->costs().sched_pick + host_->costs().kernel_entry + extra_debt;
  const int vcpu = place_task(task);
  os::sleeper_floor(task, vcpus_[static_cast<std::size_t>(vcpu)].rq);
  enqueue_task(task, vcpu);
}

// --- scheduling --------------------------------------------------------------

int GuestKernel::place_task(os::Task& task) {
  const hw::CpuSet allowed = os::allowed_cpus(all_vcpus_, task);
  const int prev = task.last_cpu;

  if (task.sticky_wakeup && prev >= 0 && allowed.contains(prev)) {
    return prev;
  }
  if (prev >= 0 && allowed.contains(prev) && idle_.contains(prev)) {
    return prev;
  }
  const int pick = os::pick_uniform(allowed & idle_, rng_);
  if (pick >= 0) return pick;
  return os::pick_least_loaded(
      allowed, [this](int vcpu) { return load_of(vcpu); }, rng_);
}

void GuestKernel::enqueue_task(os::Task& task, int vcpu) {
  if (task.cgroup != nullptr && task.cgroup->throttled_on(vcpu)) {
    task.cgroup->park(task);
    return;
  }
  auto& v = vcpus_[static_cast<std::size_t>(vcpu)];
  os::requeue(task, v.rq, vcpu, host_->engine().now());
  refresh_masks(vcpu);
  if (v.halted) kick(vcpu);
}

void GuestKernel::kick(int vcpu) {
  auto& v = vcpus_[static_cast<std::size_t>(vcpu)];
  PINSIM_CHECK(v.host_task != nullptr);
  ++stats_.kicks;
  if (kick_via_irq_) {
    // vhost completion: the host device interrupt lands on a steered
    // (pinned) or round-robin (vanilla) cpu and pulls the vCPU there.
    host_->kernel().post_external(*v.host_task);
  } else {
    // kvm_vcpu_kick: the IPI targets the pCPU the vCPU last ran on.
    host_->kernel().post_local(*v.host_task);
  }
}

os::Task* GuestKernel::pick_next(int vcpu) {
  auto& v = vcpus_[static_cast<std::size_t>(vcpu)];
  os::Task* own = os::pop_runnable(v.rq, vcpu);
  refresh_masks(vcpu);
  if (own != nullptr) return own;

  // Guest new-idle balance: steal the most-serviced compatible task from
  // the busiest sibling vCPU; it runs here at once.
  const os::StealPick steal = find_steal_for(vcpu);
  if (steal.task == nullptr) return nullptr;
  os::move_queued(*steal.task,
                  vcpus_[static_cast<std::size_t>(steal.victim)].rq, v.rq,
                  -1);
  refresh_masks(steal.victim);
  return steal.task;
}

os::StealPick GuestKernel::find_steal_for(int vcpu) const {
  if (cgroups_.bars_every_steal_to(vcpu, tasks_.unretired())) return {};
  return os::find_steal(
      queued_,
      [this](int other) -> const os::Runqueue& {
        return vcpus_[static_cast<std::size_t>(other)].rq;
      },
      all_vcpus_, vcpu);
}

// Every host grant to a vCPU starts here. Like the host's boundary
// handler, the guest's per-grant path (and the shared CFS steps it
// runs) allocates nothing in steady state (tests/alloc/ counts it).
std::optional<SimDuration> GuestKernel::next_burst(int vcpu) {
  auto& v = vcpus_[static_cast<std::size_t>(vcpu)];
  PINSIM_CHECK_MSG(v.pending_guest == 0 && v.poll_pending == 0,
                   "next_burst with grant outstanding on vcpu " << vcpu);
  const auto& costs = host_->costs();

  for (int guard = 0; guard < 100000; ++guard) {
    if (v.current == nullptr) {
      os::Task* next = pick_next(vcpu);
      if (next == nullptr) {
        // Idle: burn the halt-poll budget (host cpu, no guest progress)
        // before actually halting, like KVM's halt_poll_ns. Wakeups that
        // land within the window are picked up at the next poll chunk
        // without a kick.
        if (v.poll_left > 0) {
          const SimDuration chunk =
              std::min(v.poll_left, costs.halt_poll_chunk);
          v.poll_left -= chunk;
          v.poll_pending = chunk;
          return chunk;
        }
        v.halted = true;
        ++stats_.halts;
        return std::nullopt;
      }
      v.halted = false;
      v.poll_left = costs.halt_poll;  // reset for the next idle episode
      ++stats_.dispatches;
      ++next->stats.context_switches;
      next->overhead_debt +=
          costs.context_switch + costs.guest_context_switch_extra;
      if (next->last_cpu >= 0 && next->last_cpu != vcpu) {
        ++stats_.guest_migrations;
        ++next->stats.migrations;
        // Moving between vCPUs refills the private cache of whatever
        // host cpu backs them; charged at the flat guest rate.
        next->overhead_debt += costs.guest_ipc;
      }
      next->stats.wait_time += host_->engine().now() - next->enqueued_at;
      next->last_cpu = vcpu;
      next->state = os::TaskState::Running;
      v.current = next;
      refresh_masks(vcpu);
      v.slice_used = 0;
      v.slice_length = os::slice_length(v.rq.size() + 1);
    }
    v.halted = false;

    os::Task& task = *v.current;
    if (os::remaining_cost(task) == 0) {
      if (!advance_actions(task)) {
        v.current = nullptr;
        refresh_masks(vcpu);
        continue;
      }
    }
    if (v.slice_used >= v.slice_length) {
      if (!v.rq.empty()) {
        // Guest slice expired: preempt within the guest (the queue was
        // non-empty, so the masks already read this vCPU queued, not
        // idle).
        os::requeue(task, v.rq, vcpu, host_->engine().now());
        v.current = nullptr;
        continue;
      }
      v.slice_used = 0;
      v.slice_length = os::slice_length(v.rq.size() + 1);
    }

    SimDuration len = os::remaining_cost(task);
    len = std::min(len, v.slice_length - v.slice_used);
    len = std::min(len, kBurstCap);
    if (task.cgroup != nullptr && task.cgroup->has_quota()) {
      len = std::min(len, costs.cgroup_aggregate_interval);
      len = std::min(len, task.cgroup->runtime_horizon(vcpu));
    }
    len = std::max<SimDuration>(len, 1);
    v.pending_guest = len;
    ++stats_.bursts;
    // Timer-tick VM exits tax the grant proportionally.
    const SimDuration tax = static_cast<SimDuration>(
        static_cast<double>(len) * static_cast<double>(costs.vmexit) /
        static_cast<double>(costs.guest_tick_period));
    return len + tax;
  }
  PINSIM_CHECK_MSG(false, "guest scheduler spun on vcpu " << vcpu);
  return std::nullopt;
}

void GuestKernel::complete_burst(int vcpu) {
  auto& v = vcpus_[static_cast<std::size_t>(vcpu)];
  if (v.poll_pending > 0) {
    // A halt-poll chunk finished: host time passed, no guest progress.
    v.poll_pending = 0;
    return;
  }
  PINSIM_CHECK(v.pending_guest > 0);
  os::Task* task = v.current;
  PINSIM_CHECK(task != nullptr);
  const SimDuration elapsed = v.pending_guest;
  v.pending_guest = 0;
  stats_.granted += elapsed;

  // next_burst sizes each grant to at most the remaining cost, so the
  // work part never runs past the burst end; with no slowdown the
  // shared fold then advances the burst by exactly the work part.
  PINSIM_CHECK_MSG(elapsed <= os::remaining_cost(*task),
                   "guest charged past burst end for " << task->name());
  os::charge_task(task, vcpu, elapsed, 1.0);
  v.slice_used += elapsed;
  if (task->cgroup != nullptr && task->cgroup->throttled_on(vcpu)) {
    ++stats_.throttle_events;
    task->cgroup->park(*task);
    v.current = nullptr;
    refresh_masks(vcpu);
  }
}

// --- action protocol ----------------------------------------------------------

bool GuestKernel::advance_actions(os::Task& task) {
  return os::run_actions(
      task, host_->engine().now(), host_->costs().spin_poll_chunk,
      [&](os::Task& to, int count) { deliver(task, to, count); },
      [&](const os::Action& io) { submit_io(task, io); },
      [&](SimDuration duration) {
        os::Task* sleeper = &task;
        host_->engine().schedule_detached(
            duration, [this, sleeper] { wake(*sleeper, 0); });
      },
      [] {}, [&] { finish_task(task); });
}

void GuestKernel::finish_task(os::Task& task) {
  tasks_.retire(task, host_->engine().now());
  tasks_.run_on_exit(task);
}

void GuestKernel::deliver(os::Task& from, os::Task& to, int count) {
  // Intra-VM message: hypervisor shared memory, no host kernel on the
  // path (paper §III-B2). An IPI exit is only needed when the target
  // vCPU is halted.
  from.overhead_debt += host_->costs().guest_ipc * count;
  if (from.cgroup != nullptr && from.cgroup == to.cgroup) {
    // Container-in-VM: the bridge path exists too, but entirely inside
    // the guest (its softirq lands on the sender's own vCPU).
    from.overhead_debt += host_->costs().container_net_msg * count;
  }
  if (os::accept_messages(to, count)) {
    const int target = to.last_cpu >= 0 ? to.last_cpu : 0;
    if (vcpus_[static_cast<std::size_t>(target)].halted) {
      from.overhead_debt += host_->costs().vmexit;
    }
    wake(to, 0);
  }
}

void GuestKernel::submit_io(os::Task& task, const os::Action& action) {
  ++stats_.io_exits;
  // The IO exit runs on this vCPU: charge the hypervisor's exit cost to
  // the vCPU's host task (paid out of its next host slice).
  const int vcpu = task.last_cpu >= 0 ? task.last_cpu : 0;
  auto& v = vcpus_[static_cast<std::size_t>(vcpu)];
  if (v.host_task != nullptr) {
    v.host_task->overhead_debt += host_->costs().vmexit;
  }
  os::Task* waiter = &task;
  action.device->submit(action.request,
                        [this, waiter] { io_complete(*waiter); },
                        host_->costs().virtio_io_overhead);
}

void GuestKernel::io_complete(os::Task& task) {
  // Virtio completion: host-side vhost interrupt (kick follows the IRQ
  // path), then the injected guest interrupt and bottom half charged to
  // the waking task.
  kick_via_irq_ = true;
  wake(task, host_->costs().irq_service + host_->costs().kernel_entry);
  kick_via_irq_ = false;
}

// --- housekeeping (guest cgroups) ---------------------------------------------

void GuestKernel::ensure_housekeeping() {
  if (housekeeping_active_) return;
  housekeeping_active_ = true;
  cgroups_.restart(host_->engine().now());
  housekeeping_.arm(host_->engine().now() +
                    host_->costs().cgroup_aggregate_interval);
}

void GuestKernel::balance_idle_vcpus() {
  for (int vcpu = 0; vcpu < vcpus(); ++vcpu) {
    auto& v = vcpus_[static_cast<std::size_t>(vcpu)];
    if (!v.halted || !v.rq.empty()) continue;
    // Busiest sibling runqueue with a stealable task.
    const os::StealPick steal = find_steal_for(vcpu);
    if (steal.task == nullptr) continue;
    os::move_queued(*steal.task,
                    vcpus_[static_cast<std::size_t>(steal.victim)].rq, v.rq,
                    vcpu);
    ++stats_.guest_migrations;
    steal.task->overhead_debt += host_->costs().guest_ipc;
    v.rq.enqueue(*steal.task);
    refresh_masks(steal.victim);
    refresh_masks(vcpu);
    kick(vcpu);
  }
}

void GuestKernel::rotate_surplus_task() {
  int max_load = 0;
  int min_load = INT32_MAX;
  int busiest = -1;
  int idlest = -1;
  for (int vcpu = 0; vcpu < vcpus(); ++vcpu) {
    const int load = load_of(vcpu);
    if (load > max_load) {
      max_load = load;
      busiest = vcpu;
    }
    if (load < min_load) {
      min_load = load;
      idlest = vcpu;
    }
  }
  if (busiest < 0 || idlest < 0 || max_load - min_load < 1) return;
  auto& from = vcpus_[static_cast<std::size_t>(busiest)];
  if (from.rq.empty()) return;
  os::Task* candidate = os::movable_task(from.rq, all_vcpus_, idlest);
  if (candidate == nullptr) return;
  auto& to = vcpus_[static_cast<std::size_t>(idlest)];
  os::move_queued(*candidate, from.rq, to.rq, idlest);
  candidate->overhead_debt += host_->costs().guest_ipc;
  ++stats_.guest_migrations;
  to.rq.enqueue(*candidate);
  refresh_masks(busiest);
  refresh_masks(idlest);
  if (to.halted) kick(idlest);
}

void GuestKernel::housekeeping_tick() {
  if (tasks_.live() == 0) {
    housekeeping_active_ = false;
    return;
  }
  balance_idle_vcpus();
  if (++housekeeping_ticks_ % 8 == 0) rotate_surplus_task();
  const auto& costs = host_->costs();
  stats_.unthrottle_events += cgroups_.tick(
      host_->engine().now(), costs,
      [this, &costs](os::Cgroup& group) {
        const SimDuration cost = group.aggregate();
        if (cost == 0) return;
        // Charge the (inflated) kernel-space walk to the first running
        // member; the whole group stalls behind the shared quota pool.
        for (auto& v : vcpus_) {
          if (v.current != nullptr && v.current->cgroup == &group) {
            v.current->overhead_debt += static_cast<SimDuration>(
                static_cast<double>(cost) * costs.guest_compute_inflation);
            break;
          }
        }
      },
      [this](os::Task& task) { return place_task(task); },
      [this](os::Task& task, int vcpu) { enqueue_task(task, vcpu); });
  housekeeping_.arm(host_->engine().now() + costs.cgroup_aggregate_interval);
}

void GuestKernel::refresh_masks(int vcpu) {
  const auto& v = vcpus_[static_cast<std::size_t>(vcpu)];
  if (v.rq.empty()) {
    queued_.remove(vcpu);
  } else {
    queued_.add(vcpu);
  }
  if (v.current == nullptr && v.rq.empty()) {
    idle_.add(vcpu);
  } else {
    idle_.remove(vcpu);
  }
}

}  // namespace pinsim::virt
