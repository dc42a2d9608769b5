// The operating-system kernel model.
//
// An event-driven CFS-like scheduler over the host topology:
//  - per-cpu runqueues ordered by vruntime, slice = latency / nr_running;
//  - wakeup placement that prefers the previous cpu and otherwise picks
//    an idle/least-loaded cpu within the task's allowed set — vanilla
//    platforms therefore scatter across the host, pinned ones stay put;
//  - new-idle stealing and periodic load balancing;
//  - migration dispatch charges the cache-refill penalty from
//    hw::CacheModel;
//  - cgroup bandwidth periods, usage aggregation, and throttling;
//  - device interrupts: completion IRQs steal time from the interrupted
//    cpu and pay the wakeup chain, with IRQ steering to the task's
//    previous cpu for pinned groups (IO affinity, paper §III-B3).
//
// The same class instantiates the bare-metal host, the (GRUB-limited)
// bare-metal instance sizes, and — with a different Topology — nothing
// else: the guest kernel inside a VM is virt::GuestKernel, which reuses
// Task/Runqueue/Cgroup, the task-action protocol (os/protocol.hpp) and
// the CFS policy steps (os/cfs.hpp) but advances only when its vCPUs are
// granted host CPU time. Both kernels run actions, accept messages,
// charge cpu time, steal, move, pick, requeue, wake and unthrottle
// through the one copy of each. What this class adds is the host's own:
// the idle/busy/queued masks, wake_affine hints, NUMA, IRQs and
// observers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hw/cache_model.hpp"
#include "hw/cost_model.hpp"
#include "hw/cpuset.hpp"
#include "hw/topology.hpp"
#include "os/cfs.hpp"
#include "os/cgroup.hpp"
#include "os/observer.hpp"
#include "os/protocol.hpp"
#include "os/runqueue.hpp"
#include "os/task.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pinsim::os {

struct KernelStats {
  std::int64_t context_switches = 0;
  std::int64_t migrations = 0;
  std::int64_t cross_socket_migrations = 0;
  std::int64_t wakeups = 0;
  std::int64_t preemptions = 0;
  std::int64_t irqs = 0;
  std::int64_t steals = 0;
  std::int64_t balance_moves = 0;
  std::int64_t throttle_events = 0;
  std::int64_t unthrottle_events = 0;
  std::int64_t aggregation_events = 0;
  SimDuration migration_penalty_total = 0;
};

class Kernel {
 public:
  Kernel(sim::Engine& engine, const hw::Topology& topology,
         const hw::CostModel& costs, Rng rng, SchedParams params = {},
         std::string name = "host");
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- setup ---------------------------------------------------------------
  Cgroup& create_cgroup(Cgroup::Config config);

  Task& create_task(std::string name, std::unique_ptr<TaskDriver> driver,
                    TaskConfig config = {});

  /// Make a created task runnable now (arrival).
  void start_task(Task& task);

  /// Deliver `count` messages to `task` from outside the kernel, waking
  /// it if it blocks in Recv. Models arrival through a device interrupt:
  /// charges IRQ service on a (steered or round-robin) cpu and wakes the
  /// task with that cpu as the locality hint.
  void post_external(Task& task, int count = 1);

  /// Like post_external but local: the wake targets the task's previous
  /// cpu without a device interrupt (KVM-style vCPU kick: the IPI goes
  /// to wherever the vCPU last ran).
  void post_local(Task& task, int count = 1);

  void add_observer(SchedObserver& observer);

  // --- queries ---------------------------------------------------------------
  sim::Engine& engine() { return *engine_; }
  SimTime now() const { return engine_->now(); }
  const hw::Topology& topology() const { return *topology_; }
  const hw::CostModel& costs() const { return *costs_; }
  const std::string& name() const { return name_; }

  int live_tasks() const { return tasks_.live(); }
  /// Run queue of `cpu`, read-only (its reservation is observable).
  const Runqueue& runqueue(hw::CpuId cpu) const {
    return rq_[static_cast<std::size_t>(cpu)];
  }
  const KernelStats& stats() const { return stats_; }
  const std::vector<std::unique_ptr<Task>>& tasks() const {
    return tasks_.tasks();
  }

  /// Run the engine until every started task has finished (or `horizon`).
  /// Returns true when all tasks finished.
  bool run_until_quiescent(SimTime horizon = sim::Engine::kNoHorizon);

 private:
  // Bench/test access to the private placement path and idle masks
  // (bench/micro_sched.cpp, tests/os/kernel_property_test.cpp).
  friend struct SchedBenchAccess;

  // --- core scheduling (kernel.cpp) ---------------------------------------
  void dispatch(hw::CpuId cpu);
  /// Boundary-timer callback: this core's quantum-boundary work.
  void on_boundary(hw::CpuId cpu);
  /// Charge the running task for [charged_until_[cpu], now()].
  void charge_running(hw::CpuId cpu);
  void reprogram(hw::CpuId cpu);
  void stop_running(hw::CpuId cpu, bool requeue);
  /// The shared action protocol (os::run_actions) with the host's costs
  /// and effects. Returns true while the task should stay on the cpu.
  bool advance_actions(hw::CpuId cpu, Task& task);
  void deliver(Task& from, Task& to, int count);
  /// Runnable tasks on `cpu`: its queue plus the running one.
  int load_of(hw::CpuId cpu) const {
    const auto i = static_cast<std::size_t>(cpu);
    return rq_[i].size() + (current_[i] != nullptr ? 1 : 0);
  }
  SimDuration slice_for(hw::CpuId cpu) const {
    return slice_length(params_, load_of(cpu));
  }
  /// NUMA slowdown factor for running `task` on `cpu` (>= 1.0).
  double numa_slowdown(const Task& task, hw::CpuId cpu) const;
  /// remaining_cost adjusted for the NUMA slowdown on `cpu`.
  SimDuration remaining_cost_on(const Task& task, hw::CpuId cpu) const;

  // --- wakeup path (kernel_wakeup.cpp) -------------------------------------
  hw::CpuSet allowed_cpus(const Task& task) const {
    return os::allowed_cpus(topology_->all_cpus(), task);
  }
  /// `hint` is the cpu the wakeup originated on (IRQ handler, message
  /// poster); -1 means no locality hint. Unpinned tasks are pulled
  /// toward the hint's LLC domain (wake_affine), which is what smears a
  /// vanilla container across the host as its interrupts round-robin.
  hw::CpuId place_task(Task& task, hw::CpuId hint = -1);
  void enqueue_task(Task& task, hw::CpuId cpu);
  void wake_common(Task& task, SimDuration extra_debt,
                   hw::CpuId hint = -1);
  void io_complete(Task& task);
  void submit_io(Task& task, const Action& action);
  hw::CpuId irq_target(const Task& task);
  void charge_irq(hw::CpuId cpu);

  /// Re-derive `cpu`'s bits in the idle/busy masks from its core state.
  /// Called after every mutation of a core's `current` or runqueue so
  /// wakeup placement is pure mask arithmetic. The masks carry no state
  /// of their own — tests validate them against a recompute.
  void refresh_cpu_masks(hw::CpuId cpu);

  // --- balancing & cgroup periodic work (kernel_balance.cpp) --------------
  void steal_for(hw::CpuId cpu);
  void periodic_balance();
  void housekeeping_tick();
  void cgroup_aggregate(Cgroup& group);
  void ensure_housekeeping();

  // --- helpers --------------------------------------------------------------
  template <typename Fn>
  void notify(Fn&& fn) {
    for (auto* obs : observers_) fn(*obs);
  }

  sim::Engine* engine_;
  const hw::Topology* topology_;
  const hw::CostModel* costs_;
  hw::CacheModel cache_model_;
  Rng rng_;
  SchedParams params_;
  std::string name_;

  // Struct-of-arrays per-core scheduler state, indexed by cpu id.
  // Canonical task fields (vruntime, burst, debt) stay on os::Task.
  std::vector<Task*> current_;
  std::vector<Runqueue> rq_;
  /// Per-core quantum-boundary timers, made once and re-armed in place;
  /// each fires through Engine::step() into on_boundary().
  std::vector<sim::Timer> boundary_;
  std::vector<SimTime> charged_until_;
  std::vector<SimTime> slice_started_;
  std::vector<SimDuration> slice_length_;
  // Incrementally-updated placement masks (see refresh_cpu_masks):
  // idle_ holds every cpu with no current task and an empty runqueue,
  // idle_socket_[s] the idle cpus of socket s, busy_ every cpu with a
  // current task, and queued_ every cpu with a nonempty runqueue — so
  // wakeup placement is `allowed & idle_socket_[s]` plus one nth_set
  // pick, the cgroup aggregation sweep walks only busy cpus, and the
  // steal/balance scans word-scan only cpus with queued work instead of
  // all num_cpus() runqueues.
  hw::CpuSet idle_;
  hw::CpuSet busy_;
  hw::CpuSet queued_;
  std::vector<hw::CpuSet> idle_socket_;
  TaskTable tasks_;
  CgroupTable cgroups_;
  std::vector<SchedObserver*> observers_;

  std::size_t rq_reserved_ = 0;  // capacity reserved on every runqueue
  hw::CpuId irq_rr_ = 0;  // round-robin irq distribution for unpinned IO
  bool housekeeping_active_ = false;
  sim::Timer housekeeping_;  // the cgroup aggregation / balance tick
  SimTime next_balance_ = 0;
  KernelStats stats_;
};

}  // namespace pinsim::os
