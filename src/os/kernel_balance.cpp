// Load balancing and periodic housekeeping (cgroup bandwidth periods,
// usage aggregation, periodic rebalance).
#include "os/kernel.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pinsim::os {

void Kernel::steal_for(hw::CpuId cpu) {
  const auto i = static_cast<std::size_t>(cpu);
  PINSIM_CHECK(rq_[i].empty());
  // Throttling alone may rule out every queued task: skip the scan.
  if (cgroups_.bars_every_steal_to(cpu, tasks_.unretired())) return;

  // Only cpus with queued work can be victims; word-scan the queued
  // mask in ascending cpu order (the historical visitation order, so
  // every tie-break is unchanged) instead of walking all num_cpus()
  // runqueues. This cpu's runqueue is empty, so it is never in the mask.
  // Quiet cores are never victims either — their runqueue is empty by
  // the window invariant, so they are not in the mask.
  const StealPick steal = find_steal(
      queued_,
      [this](hw::CpuId other) -> const Runqueue& {
        return rq_[static_cast<std::size_t>(other)];
      },
      topology_->all_cpus(), cpu);
  if (steal.task == nullptr) return;

  move_queued(*steal.task, rq_[static_cast<std::size_t>(steal.victim)],
              rq_[i], cpu);
  refresh_cpu_masks(steal.victim);
  rq_[i].enqueue(*steal.task);
  refresh_cpu_masks(cpu);
  ++stats_.steals;
}

void Kernel::periodic_balance() {
  // One migration per tick from the most- to the least-loaded cpu keeps
  // long-run fairness without thrashing; new-idle stealing does the
  // latency-critical part.
  int max_load = 0;
  int min_load = INT32_MAX;
  hw::CpuId busiest = -1;
  hw::CpuId idlest = -1;
  // Nonzero load means a current task (busy_) or queued work (queued_);
  // everything else has load 0 and is exactly the idle mask. Scanning
  // the union in ascending order visits the same candidates the full
  // 0..num_cpus() sweep did, minus cpus that can win neither race —
  // except for the load-0 idlest, which is the first idle cpu.
  if (!idle_.empty()) {
    min_load = 0;
    idlest = idle_.first();
  }
  (busy_ | queued_).for_each([&](hw::CpuId cpu) {
    const int load = load_of(cpu);
    if (load > max_load) {
      max_load = load;
      busiest = cpu;
    }
    if (load < min_load) {
      min_load = load;
      idlest = cpu;
    }
  });
  // Move when clearly imbalanced; with a persistent 1-task imbalance
  // (e.g. 5 runnable tasks on 4 cpus) CFS still rotates the surplus task
  // so every task gets a fair global share — mirror that by migrating
  // whenever the busiest cpu has queued work and someone is lighter.
  if (busiest < 0 || idlest < 0) return;
  if (max_load - min_load < 2 &&
      !(max_load - min_load == 1 && max_load >= 2)) {
    return;
  }

  auto& from_rq = rq_[static_cast<std::size_t>(busiest)];
  Task* candidate = movable_task(from_rq, topology_->all_cpus(), idlest);
  if (candidate == nullptr) return;

  auto& to_rq = rq_[static_cast<std::size_t>(idlest)];
  move_queued(*candidate, from_rq, to_rq, idlest);
  refresh_cpu_masks(busiest);
  to_rq.enqueue(*candidate);
  refresh_cpu_masks(idlest);
  ++stats_.balance_moves;
  if (current_[static_cast<std::size_t>(idlest)] == nullptr) dispatch(idlest);
}

void Kernel::ensure_housekeeping() {
  if (housekeeping_active_) return;
  housekeeping_active_ = true;
  next_balance_ = now() + params_.balance_interval;
  cgroups_.restart(now());
  housekeeping_.arm(now() + costs_->cgroup_aggregate_interval);
}

void Kernel::housekeeping_tick() {
  if (tasks_.live() == 0) {
    housekeeping_active_ = false;
    return;
  }
  // On unthrottle every parked task re-enters through the wakeup
  // placement: vanilla groups scatter again (and repay cache refills),
  // pinned ones return to their cpuset.
  stats_.unthrottle_events += cgroups_.tick(
      now(), *costs_, [this](Cgroup& group) { cgroup_aggregate(group); },
      [this](Task& task) { return place_task(task); },
      [this](Task& task, hw::CpuId cpu) { enqueue_task(task, cpu); });
  if (now() >= next_balance_) {
    periodic_balance();
    next_balance_ = now() + params_.balance_interval;
  }
  housekeeping_.arm(now() + costs_->cgroup_aggregate_interval);
}

void Kernel::cgroup_aggregate(Cgroup& group) {
  const int spread = group.current_spread();
  const SimDuration cost = group.aggregate();
  if (cost == 0) return;
  ++stats_.aggregation_events;
  notify([&](SchedObserver& o) { o.on_aggregation(group, spread, cost); });
  // The aggregation is an atomic kernel-space pass over the per-cpu
  // usage records and the group is suspended while it runs (paper
  // §IV-B: "the container has to be suspended until tracking and
  // aggregating resource usage of the container is complete"): every
  // member currently on a cpu stalls for the duration of the walk,
  // which grows with the group's spread. Only cpus in the busy mask can
  // host a member, so the sweep skips idle cores entirely.
  busy_.for_each([&](hw::CpuId cpu) {
    const auto i = static_cast<std::size_t>(cpu);
    if (current_[i] != nullptr && current_[i]->cgroup == &group) {
      charge_running(cpu);
      current_[i]->overhead_debt += cost;
      reprogram(cpu);
    }
  });
}

}  // namespace pinsim::os
