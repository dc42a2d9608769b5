#include "os/cgroup.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pinsim::os {

Cgroup::Cgroup(Config config, const hw::CostModel& costs)
    : config_(std::move(config)), costs_(&costs) {
  PINSIM_CHECK(config_.cpu_limit >= 0.0);
  if (has_quota()) {
    period_quota_ = static_cast<SimDuration>(
        config_.cpu_limit * static_cast<double>(costs_->cfs_period));
    runtime_left_ = period_quota_;
    local_slice_.assign(static_cast<std::size_t>(hw::CpuSet::kMaxCpus), 0);
  }
}

SimDuration Cgroup::charge(hw::CpuId cpu, SimDuration amount) {
  PINSIM_CHECK(amount >= 0);
  if (amount == 0) return 0;
  stats_.usage += amount;
  spread_.add(cpu);

  if (!has_quota()) return 0;

  SimDuration overhead = 0;
  SimDuration remaining = amount;
  touched_.add(cpu);
  SimDuration& local = local_slice_[static_cast<std::size_t>(cpu)];
  while (remaining > 0) {
    if (local >= remaining) {
      local -= remaining;
      remaining = 0;
      break;
    }
    remaining -= local;
    local = 0;
    if (runtime_left_ <= 0) {
      // Pool dry: the overrun (at most one charge granule) is absorbed,
      // mirroring the kernel, and the group throttles.
      if (!throttled_) {
        throttled_ = true;
        ++stats_.throttles;
      }
      break;
    }
    // Transfer one slice from the global pool — a kernel-space
    // accounting invocation.
    const SimDuration slice =
        std::min(costs_->cfs_bandwidth_slice, runtime_left_);
    runtime_left_ -= slice;
    local += slice;
    overhead += costs_->cgroup_account;
    ++stats_.slice_refills;
  }
  stats_.accounting_overhead += overhead;
  return overhead;
}

SimDuration Cgroup::runtime_horizon(hw::CpuId cpu) const {
  PINSIM_CHECK(has_quota());
  return local_runtime(cpu) + runtime_left_;
}

bool Cgroup::refill_period() {
  if (!has_quota()) return false;
  runtime_left_ = period_quota_;
  // Reset only the slices actually handed out this period: walk the
  // touched set's bits instead of clearing the whole per-cpu array.
  touched_.for_each([this](hw::CpuId cpu) {
    local_slice_[static_cast<std::size_t>(cpu)] = 0;
  });
  touched_ = hw::CpuSet();
  const bool released = throttled_;
  throttled_ = false;
  return released;
}

SimDuration Cgroup::aggregate() {
  const int spread = spread_.count();
  ++stats_.aggregations;
  stats_.spread_samples += spread;
  stats_.max_spread = std::max(stats_.max_spread, spread);
  spread_ = hw::CpuSet();
  if (spread == 0) return 0;
  SimDuration cost =
      costs_->cgroup_aggregate_base +
      static_cast<SimDuration>(spread) * costs_->cgroup_aggregate_per_core;
  // The walk cannot take longer than its own scheduling interval — a
  // longer pass would simply delay the next one, so the steady-state
  // stall is bounded by (most of) one interval.
  cost = std::min(cost, costs_->cgroup_aggregate_interval * 4 / 5);
  stats_.accounting_overhead += cost;
  return cost;
}

void Cgroup::park(Task& task) {
  PINSIM_CHECK_MSG(task.park_index_ < 0,
                   "task " << task.name() << " parked twice");
  task.state = TaskState::Throttled;
  task.park_index_ = static_cast<int>(parked_.size());
  parked_.push_back(&task);
}

void Cgroup::unpark(Task& task) {
  PINSIM_CHECK_MSG(is_parked(task),
                   "task " << task.name() << " not parked here");
  const std::size_t index = static_cast<std::size_t>(task.park_index_);
  Task* last = parked_.back();
  parked_[index] = last;
  last->park_index_ = static_cast<int>(index);
  parked_.pop_back();
  task.park_index_ = -1;
}

bool Cgroup::is_parked(const Task& task) const {
  const int index = task.park_index_;
  return index >= 0 && index < static_cast<int>(parked_.size()) &&
         parked_[static_cast<std::size_t>(index)] == &task;
}

void Cgroup::take_parked(std::vector<Task*>* out) {
  for (Task* task : parked_) task->park_index_ = -1;
  // A copy, not a swap: parked_ keeps its reservation (park() never
  // allocates), and a re-enqueue may park a taken task again. `out`
  // takes the same geometric reservation, so a reused one reallocates
  // only when some group's membership outgrows it.
  out->reserve(parked_.capacity());
  out->assign(parked_.begin(), parked_.end());
  parked_.clear();
}

void Cgroup::add_member(Task& task) {
  PINSIM_CHECK(task.cgroup == nullptr || task.cgroup == this);
  if (task.cgroup == this) return;
  task.cgroup = this;
  ++members_;
  // Grow geometrically, so a pool that keeps gaining members
  // reallocates O(log n) times.
  const auto live = static_cast<std::size_t>(members_);
  if (live > parked_.capacity()) {
    parked_.reserve(std::max(live, 2 * parked_.capacity()));
  }
}

void Cgroup::remove_member(Task& task) {
  PINSIM_CHECK(task.cgroup == this);
  if (is_parked(task)) unpark(task);
  task.cgroup = nullptr;
  --members_;
}

}  // namespace pinsim::os
