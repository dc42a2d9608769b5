// The CFS policy shared by the host and the guest kernel.
//
// The guest runs the host's scheduling decisions one level down (paper
// Table III, KVM row): only the costs and the machinery around each
// decision differ. os::Kernel and virt::GuestKernel both call the one
// copy of each step here, over their own runqueues and cpu (or vCPU)
// range:
//  - the scheduler constants, the slice length and a task's remaining
//    cost;
//  - the allowed set and steal eligibility;
//  - the steal search and the queued-task move it feeds;
//  - the random picks (uniform over a set, least-loaded with random
//    tie-break);
//  - runqueue reservation, requeue, wake accounting and the sleeper
//    floor;
//  - the cgroup table: creation, the bandwidth-period cadence, and the
//    unthrottle loop.
// Each level keeps what is its own: the host its idle/busy/queued
// masks, wake_affine, NUMA, IRQs and observers; the guest halt-poll,
// kicks, burst grants and inflation. The steps are inline templates
// with no allocation and no type erasure, because both per-quantum
// paths run them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hw/cost_model.hpp"
#include "hw/cpuset.hpp"
#include "os/cgroup.hpp"
#include "os/runqueue.hpp"
#include "os/task.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pinsim::os {

/// Target latency: every runnable task runs once per this window.
inline constexpr SimDuration kSchedLatency = msec(12);
/// Minimum slice regardless of queue depth.
inline constexpr SimDuration kMinGranularity = msec(1);
/// A waking task preempts the running one only if it is behind by at
/// least this much vruntime.
inline constexpr SimDuration kWakeupPreemptGranularity = msec(1);
/// Periodic load-balance interval.
inline constexpr SimDuration kBalanceInterval = msec(8);

// Every level's slice arithmetic relies on these: a zero latency or
// granularity would cut every slice down to a 1 ns grant.
static_assert(kSchedLatency > 0, "sched latency must be > 0");
static_assert(kMinGranularity > 0, "min granularity must be > 0");

/// Slice on a queue of `runnable` tasks, the running one included:
/// the latency window shared evenly, never below kMinGranularity.
inline SimDuration slice_length(int runnable) {
  return std::max(kMinGranularity, kSchedLatency / std::max(1, runnable));
}

/// Executor time `task` needs before its next action: debt, then burst.
inline SimDuration remaining_cost(const Task& task) {
  return task.overhead_debt + task.burst_remaining;
}

/// Where `task` may run among `cpus`, the kernel's cpu (or vCPU) range:
/// its affinity and its cgroup's cpuset, when set, narrow the range.
inline hw::CpuSet allowed_cpus(const hw::CpuSet& cpus, const Task& task) {
  hw::CpuSet allowed = cpus;
  if (!task.affinity.empty()) allowed = allowed & task.affinity;
  if (task.cgroup != nullptr && !task.cgroup->cpuset().empty()) {
    allowed = allowed & task.cgroup->cpuset();
  }
  PINSIM_CHECK_MSG(!allowed.empty(),
                   "task " << task.name() << " has no allowed cpus");
  return allowed;
}

/// Whether a steal or balance move may put queued `task` on `to`: its
/// cgroup is not throttled there (parking it on arrival would just
/// churn) and the task is allowed there. The one-load throttle test
/// goes first, so a throttled task never builds its allowed mask; the
/// mask's "no allowed cpus" CHECK still runs for every other task, and
/// for every task where it is placed.
inline bool steal_eligible(const hw::CpuSet& cpus, const Task& task,
                           hw::CpuId to) {
  if (task.cgroup != nullptr && task.cgroup->throttled_on(to)) return false;
  return allowed_cpus(cpus, task).contains(to);
}

/// The most-serviced task on `rq` that may move to `to` (the fairest
/// one to move), or null.
inline Task* movable_task(const Runqueue& rq, const hw::CpuSet& cpus,
                          hw::CpuId to) {
  return rq.max_where(
      [&](const Task& task) { return steal_eligible(cpus, task, to); });
}

/// A steal: the victim cpu and the task to take from it.
struct StealPick {
  hw::CpuId victim = -1;
  Task* task = nullptr;
};

/// New-idle steal search for `to`: visiting `victims` in ascending
/// order, the busiest runqueue (`rq_of(cpu)`) that holds a task movable
/// to `to`, and that task. A queue must be strictly longer than the
/// best so far, so on a tie the lowest cpu wins. {-1, null} when no
/// queue holds a movable task. The search draws no random numbers and
/// changes nothing, so a caller may skip it when
/// CgroupTable::bars_every_steal_to says it would find nothing.
template <class RqOf>
StealPick find_steal(const hw::CpuSet& victims, RqOf&& rq_of,
                     const hw::CpuSet& cpus, hw::CpuId to) {
  StealPick best;
  int best_load = 0;
  victims.for_each([&](hw::CpuId other) {
    const Runqueue& rq = rq_of(other);
    if (rq.size() <= best_load) return;
    if (Task* found = movable_task(rq, cpus, to)) {
      best_load = rq.size();
      best = StealPick{other, found};
    }
  });
  return best;
}

/// Take queued `task` off `from` for runqueue `to` of cpu `to_cpu` (-1
/// when it is dispatched at once instead): its vruntime keeps its lag
/// behind the queue minimum, renormalized from `from` to `to`. The
/// caller enqueues it.
inline void move_queued(Task& task, Runqueue& from, const Runqueue& to,
                        hw::CpuId to_cpu) {
  from.remove(task);
  task.vruntime = task.vruntime - from.min_vruntime() + to.min_vruntime();
  task.queued_cpu = to_cpu;
}

/// A uniform pick from `cpus`: one draw, then the drawn member in
/// ascending order. -1, without a draw, when `cpus` is empty.
inline hw::CpuId pick_uniform(const hw::CpuSet& cpus, Rng& rng) {
  const int count = cpus.count();
  if (count == 0) return -1;
  return cpus.nth_set(static_cast<int>(
      rng.uniform_int(0, static_cast<std::int64_t>(count) - 1)));
}

/// The least-loaded cpu of non-empty `allowed` by `load_of(cpu)`,
/// random among ties: count the ties in one pass, draw once, then
/// select the drawn tie in ascending order in a second pass.
template <class LoadOf>
hw::CpuId pick_least_loaded(const hw::CpuSet& allowed, LoadOf&& load_of,
                            Rng& rng) {
  int best_load = INT32_MAX;
  int ties = 0;
  allowed.for_each([&](hw::CpuId cpu) {
    const int load = load_of(cpu);
    if (load < best_load) {
      best_load = load;
      ties = 0;
    }
    if (load == best_load) ++ties;
  });
  PINSIM_CHECK(ties > 0);
  std::int64_t pick = rng.uniform_int(0, ties - 1);
  for (hw::CpuId cpu = allowed.first_set_after(-1); cpu >= 0;
       cpu = allowed.first_set_after(cpu)) {
    if (load_of(cpu) == best_load && pick-- == 0) return cpu;
  }
  PINSIM_CHECK_MSG(false, "tie pick fell off the allowed set");
  return allowed.first();
}

/// After a start brought the kernel to `live` started, unfinished
/// tasks, keep each of its `queues` runqueues (`rq_of(i)`) able to hold
/// them all. Only live tasks can be queued, so `live` bounds every
/// queue; reserving twice the count whenever it passes `*reserved`
/// keeps Runqueue::enqueue allocation-free at O(live) memory and
/// amortized O(1) cost per start. The task table's size is no bound:
/// finished tasks stay in it as records.
template <class RqOf>
void reserve_runqueues(int live, int queues, std::size_t* reserved,
                       RqOf&& rq_of) {
  const auto needed = static_cast<std::size_t>(live);
  if (needed <= *reserved) return;
  *reserved = 2 * needed;
  for (int q = 0; q < queues; ++q) rq_of(q).reserve(*reserved);
}

/// Make `task` Runnable on `rq`, the runqueue of `cpu`, at `now`.
inline void requeue(Task& task, Runqueue& rq, hw::CpuId cpu, SimTime now) {
  task.state = TaskState::Runnable;
  task.enqueued_at = now;
  task.queued_cpu = cpu;
  rq.enqueue(task);
}

/// Book the wakeup of blocked `task` at `now` on the task. Returns how
/// long it was blocked.
inline SimDuration account_wake(Task& task, SimTime now) {
  PINSIM_CHECK_MSG(task.state == TaskState::Blocked,
                   "wake of non-blocked task " << task.name() << " in state "
                                               << to_string(task.state));
  const SimDuration blocked = now - task.blocked_at;
  task.stats.block_time += blocked;
  ++task.stats.wakeups;
  return blocked;
}

/// Sleeper credit: a waking task placed on `rq` keeps at most
/// kSchedLatency of lag behind its minimum, so a long sleeper cannot
/// monopolize the cpu with an ancient vruntime.
inline void sleeper_floor(Task& task, const Runqueue& rq) {
  task.vruntime = std::max(task.vruntime, rq.min_vruntime() - kSchedLatency);
}

/// A kernel's cgroups and their bandwidth-period cadence.
class CgroupTable {
 public:
  /// A new group; a non-empty cpuset must lie within `cpus`, the
  /// kernel's cpu (or vCPU) range.
  Cgroup& create(Cgroup::Config config, const hw::CpuSet& cpus,
                 const hw::CostModel& costs) {
    if (!config.cpuset.empty()) {
      PINSIM_CHECK_MSG(config.cpuset.subset_of(cpus),
                       "cgroup cpuset outside the kernel's cpus");
    }
    groups_.push_back(std::make_unique<Cgroup>(std::move(config), costs));
    return *groups_.back();
  }

  bool empty() const { return groups_.empty(); }

  /// Whether `group` was created by this table.
  bool owns(const Cgroup& group) const {
    return std::any_of(groups_.begin(), groups_.end(),
                       [&](const auto& own) { return own.get() == &group; });
  }

  /// True when throttling alone bars every task of the kernel from a
  /// steal or balance move to `cpu`, so find_steal would return
  /// {-1, null}: every quota group is throttled on `cpu`, and their
  /// members add up to all `unretired` tasks of the kernel (created,
  /// not yet retired), so none is uncapped. Exact because queued tasks
  /// are started and unretired, and a task joins only its own kernel's
  /// group; a created-but-unstarted uncapped task can only switch the
  /// answer to false. O(groups).
  bool bars_every_steal_to(hw::CpuId cpu, int unretired) const {
    int capped = 0;
    for (const auto& group : groups_) {
      if (!group->has_quota()) continue;
      if (!group->throttled_on(cpu)) return false;
      capped += group->member_count();
    }
    return capped == unretired;
  }

  /// Housekeeping (re)starts at `now`: no period falls due before it.
  void restart(SimTime now) {
    next_period_.resize(groups_.size(), now);
    for (SimTime& next : next_period_) next = std::max(next, now);
  }

  /// One housekeeping tick at `now`, over the groups in creation order:
  /// `aggregate(group)` settles the group's usage, then a quota group
  /// whose period is due refills. When that releases a throttled group,
  /// each parked task pays a placement pick and re-enters through
  /// `enqueue(task, place(task))`, in throttle order. Returns how many
  /// groups were released.
  template <class Aggregate, class Place, class Enqueue>
  int tick(SimTime now, const hw::CostModel& costs, Aggregate&& aggregate,
           Place&& place, Enqueue&& enqueue) {
    next_period_.resize(groups_.size(), now);
    int released = 0;
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      Cgroup& group = *groups_[i];
      aggregate(group);
      if (!group.has_quota() || now < next_period_[i]) continue;
      next_period_[i] = now + costs.cfs_period;
      if (!group.refill_period()) continue;
      ++released;
      group.take_parked(&released_);
      for (Task* task : released_) {
        PINSIM_CHECK(task->state == TaskState::Throttled);
        task->overhead_debt += costs.sched_pick;
        enqueue(*task, place(*task));
      }
    }
    return released;
  }

 private:
  std::vector<std::unique_ptr<Cgroup>> groups_;
  std::vector<SimTime> next_period_;  // parallel to groups_
  /// The tasks one release re-enqueues, reused across ticks and reserved
  /// by take_parked(), so a release allocates only as membership grows.
  std::vector<Task*> released_;
};

}  // namespace pinsim::os
