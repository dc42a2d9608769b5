// Control-group CPU controller model (cgroups v1 `cpu` + `cpuset`).
//
// Implements the three mechanisms the paper identifies (§II-C, §IV-B):
//
//  1. *Bandwidth control*: a group holds `cpu_limit × period` of runtime
//     per enforcement period. Runtime is handed out to cpus in slices
//     (kernel: sched_cfs_bandwidth_slice_us); each slice transfer is a
//     kernel-space accounting invocation and costs overhead. When the
//     pool runs dry the whole group is throttled until the next refill.
//
//  2. *Usage tracking*: the controller records which cpus the group has
//     recently consumed time on (its "spread"). Periodically it must
//     atomically aggregate usage across all of those cpus; the group is
//     suspended while this runs and the cost grows with the spread. A
//     small vanilla container smeared across 112 host cores pays ~50×
//     the aggregation of the same container pinned to 2 — the paper's
//     Platform-Size Overhead.
//
//  3. *cpuset*: an optional cpu mask (CPU pinning) restricting where
//     member tasks may run.
//
// The class is clock-agnostic (the caller passes no timestamps; periods
// and aggregation are driven by whichever kernel owns the group), so the
// same implementation serves host containers and guest-side containers
// inside a VM (the VMCN platform).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/cost_model.hpp"
#include "hw/cpuset.hpp"
#include "os/task.hpp"
#include "util/units.hpp"

namespace pinsim::os {

class Cgroup {
 public:
  struct Config {
    std::string name = "cgroup";
    /// Quota in units of whole cpus per period (Docker `--cpus`).
    /// 0 means unlimited (no bandwidth control).
    double cpu_limit = 0.0;
    /// Allowed cpus; empty = unrestricted.
    hw::CpuSet cpuset;
  };

  struct Stats {
    SimDuration usage = 0;             // total cpu time charged
    SimDuration accounting_overhead = 0;  // slice-refill + aggregation cost
    std::int64_t slice_refills = 0;
    std::int64_t throttles = 0;
    std::int64_t aggregations = 0;
    std::int64_t spread_samples = 0;   // sum of spreads over aggregations
    int max_spread = 0;                // widest single aggregation window
  };

  Cgroup(Config config, const hw::CostModel& costs);

  const std::string& name() const { return config_.name; }
  const Config& config() const { return config_; }
  bool has_quota() const { return config_.cpu_limit > 0.0; }
  const hw::CpuSet& cpuset() const { return config_.cpuset; }

  bool throttled() const { return throttled_; }

  /// Per-cpu throttle check (CFS throttles runqueues, not the world):
  /// a cpu may keep running group tasks while it still holds local
  /// slice runtime, even after the global pool has drained.
  bool throttled_on(hw::CpuId cpu) const {
    return throttled_ && local_runtime(cpu) == 0;
  }

  /// Charge `amount` of cpu time consumed on `cpu`. Returns the
  /// accounting overhead (slice-refill cost) the charging task must pay
  /// as debt. Sets the throttled flag when the quota pool is exhausted.
  SimDuration charge(hw::CpuId cpu, SimDuration amount);

  /// Period boundary: refill the quota pool and reset per-cpu slices.
  /// Returns true when the group was throttled and is now released.
  bool refill_period();

  /// Atomic usage aggregation: returns the suspension cost for the
  /// current spread and resets the spread window.
  SimDuration aggregate();

  /// Number of distinct cpus with usage since the last aggregation.
  int current_spread() const { return spread_.count(); }

  /// Remaining global runtime in this period (meaningful with quota).
  SimDuration runtime_left() const { return runtime_left_; }

  /// Runtime cached locally on `cpu` (slice already transferred).
  SimDuration local_runtime(hw::CpuId cpu) const {
    if (local_slice_.empty() || cpu < 0 || cpu >= hw::CpuSet::kMaxCpus) {
      return 0;
    }
    return local_slice_[static_cast<std::size_t>(cpu)];
  }

  /// How much the group may still consume on `cpu` before throttling:
  /// local slice + global pool. The kernel uses this to program the next
  /// accounting boundary so quota is enforced exactly.
  SimDuration runtime_horizon(hw::CpuId cpu) const;

  // --- membership (maintained by the owning kernel) -----------------------
  /// A task is a member exactly when its `cgroup` points here; a repeat
  /// join is a no-op.
  void add_member(Task& task);
  /// Leave the group (the kernels call this when a member exits).
  void remove_member(Task& task);
  /// Members that have joined and not yet left.
  int member_count() const { return members_; }

  // --- parked tasks (bandwidth throttling) --------------------------------
  /// Park a task dequeued by bandwidth throttling and mark it
  /// Throttled. O(1); the task records its slot index so a later unpark
  /// never scans the list.
  void park(Task& task);
  /// Remove one parked task out of order (swap-and-pop, O(1)).
  void unpark(Task& task);
  bool is_parked(const Task& task) const;
  /// Move the whole parked list into `out` (replacing its contents) for
  /// re-enqueueing on period refill; preserves throttle order and leaves
  /// the list empty. `out` is reserved like the parked list, so a caller
  /// that reuses it allocates only as group membership grows.
  void take_parked(std::vector<Task*>* out);
  /// Tasks parked by bandwidth throttling (read-only; logging/tests).
  const std::vector<Task*>& parked() const { return parked_; }

  const Stats& stats() const { return stats_; }

 private:
  Config config_;
  const hw::CostModel* costs_;

  SimDuration period_quota_ = 0;   // cpu_limit × cfs_period
  SimDuration runtime_left_ = 0;   // global pool for the current period
  // Per-cpu cached runtime as a flat array indexed by cpu id (sized only
  // for quota groups), plus the set of cpus holding a slice so the
  // period reset walks set bits instead of clearing a map.
  std::vector<SimDuration> local_slice_;
  hw::CpuSet touched_;
  bool throttled_ = false;

  hw::CpuSet spread_;

  int members_ = 0;
  // Only members are parked, so parked_ is reserved to at least the
  // member count (see add_member) and park() never allocates.
  std::vector<Task*> parked_;
  Stats stats_;
};

}  // namespace pinsim::os
