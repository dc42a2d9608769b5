// The guest kernel inside a simulated KVM virtual machine.
//
// A VM really is a set of host tasks (one per vCPU) from the host's point
// of view — the paper leans on this repeatedly. GuestKernel is the other
// half: a CFS-like scheduler over the guest's vCPUs whose cpu time only
// advances when the host grants the corresponding vCPU task a slice.
//
// Execution protocol (driven by virt::Vm's vCPU task drivers):
//   1. next_burst(vcpu) picks the next guest task for that vCPU and
//      returns how long the vCPU should execute on the host — the guest
//      mini-burst (bounded by the guest scheduling slice, the task's
//      remaining action cost, and the guest cgroup's runtime horizon)
//      plus the timer-tick VM-exit tax.
//   2. The host schedules the vCPU task for that long (possibly
//      preempted and resumed — the guest is simply frozen meanwhile).
//   3. complete_burst(vcpu) charges the guest task, advances its action
//      protocol (guest IO goes out through virtio; intra-guest messages
//      are hypervisor-shared-memory cheap), and the cycle repeats. When
//      no guest task is runnable the vCPU halts (HLT → host task blocks)
//      until a wakeup kicks it.
//
// Guest wall-clock time equals host time (kvm-clock), so cgroup periods
// and aggregation inside the guest run on host-engine events; only CPU
// *progress* is grant-driven.
//
// The scheduling policy is the host's: steal search, balance moves,
// random picks, requeue, wake accounting and the cgroup period/unthrottle
// loop are the shared steps of os/cfs.hpp, over the vCPU runqueues.
// What stays here is the guest's own: halt-polling, vCPU kicks, burst
// grants and compute inflation.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "os/cfs.hpp"
#include "os/cgroup.hpp"
#include "os/protocol.hpp"
#include "os/runqueue.hpp"
#include "os/task.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pinsim::virt {

class Host;

struct GuestStats {
  std::int64_t dispatches = 0;
  std::int64_t guest_migrations = 0;
  std::int64_t bursts = 0;
  std::int64_t io_exits = 0;
  std::int64_t kicks = 0;
  std::int64_t halts = 0;
  std::int64_t throttle_events = 0;
  std::int64_t unthrottle_events = 0;
  SimDuration granted = 0;  // host cpu time granted to guest work
};

class GuestKernel {
 public:
  struct Config {
    int vcpus = 1;
    /// Multiplier applied to guest user-mode compute (PTO).
    double compute_inflation = 1.95;
    /// Guest scheduler parameters.
    os::SchedParams params;
    /// Upper bound on one execution grant; keeps guest IO latency and
    /// intra-guest wakeup latency at sub-slice granularity.
    SimDuration burst_cap = msec(4);
  };

  GuestKernel(Host& host, Config config);

  GuestKernel(const GuestKernel&) = delete;
  GuestKernel& operator=(const GuestKernel&) = delete;

  // --- vCPU driver interface ------------------------------------------------
  /// Host task that backs vCPU `vcpu`; must be attached before tasks run.
  void attach_vcpu_task(int vcpu, os::Task& host_task);

  /// Host-cpu duration of the next grant, or nullopt to halt (HLT).
  std::optional<SimDuration> next_burst(int vcpu);

  /// Apply the grant returned by the previous next_burst on this vcpu.
  void complete_burst(int vcpu);

  // --- guest task management ------------------------------------------------
  os::Cgroup& create_cgroup(os::Cgroup::Config config);

  os::Task& create_task(std::string name,
                        std::unique_ptr<os::TaskDriver> driver,
                        os::TaskConfig config = {});

  void start_task(os::Task& task);

  /// External message into the guest (load generator via virtual NIC).
  void post_external(os::Task& task, int count = 1);

  /// Wake a blocked guest task (IO completion injection, sleeps).
  void wake(os::Task& task, SimDuration extra_debt = 0);

  int vcpus() const { return static_cast<int>(vcpus_.size()); }
  /// vCPUs whose runqueue holds a task: the steal victims.
  const hw::CpuSet& queued_vcpus() const { return queued_; }
  /// vCPUs with no current task and an empty runqueue: the placement
  /// targets.
  const hw::CpuSet& idle_vcpus() const { return idle_; }
  int live_tasks() const { return tasks_.live(); }
  const GuestStats& stats() const { return stats_; }
  const std::vector<std::unique_ptr<os::Task>>& tasks() const {
    return tasks_.tasks();
  }

 private:
  struct VcpuState {
    os::Runqueue rq;
    os::Task* current = nullptr;
    os::Task* host_task = nullptr;
    bool halted = true;
    SimDuration slice_used = 0;
    SimDuration slice_length = 0;
    /// Guest-time length of the outstanding grant (0 = none).
    SimDuration pending_guest = 0;
    /// Remaining halt-poll budget for the current idle episode.
    SimDuration poll_left = 0;
    /// Outstanding poll chunk (host time burning, no guest progress).
    SimDuration poll_pending = 0;
  };

  /// The shared action protocol with the guest's costs and effects.
  bool advance_actions(os::Task& task);
  void finish_task(os::Task& task);
  void deliver(os::Task& from, os::Task& to, int count);
  void submit_io(os::Task& task, const os::Action& action);
  void io_complete(os::Task& task);

  os::Task* pick_next(int vcpu);
  int place_task(os::Task& task);
  void enqueue_task(os::Task& task, int vcpu);
  void kick(int vcpu);
  /// True while the current wakeup originates from a host-side device
  /// interrupt (vhost): the vCPU kick then follows the host IRQ path
  /// (round-robin on vanilla VMs, steered on pinned ones).
  bool kick_via_irq_ = false;

  /// Runnable tasks on `vcpu`: its queue plus the running one.
  int load_of(int vcpu) const {
    const VcpuState& v = vcpus_[static_cast<std::size_t>(vcpu)];
    return v.rq.size() + (v.current != nullptr ? 1 : 0);
  }
  /// The shared steal search for `vcpu` over the queued_ vCPUs
  /// (`vcpu`'s own queue is empty whenever it steals). When the guest's
  /// quota groups are throttled on `vcpu` and hold every unretired task
  /// (a VMCN guest out of quota), it answers {-1, null} in O(groups)
  /// without visiting a queue.
  os::StealPick find_steal_for(int vcpu) const;

  void ensure_housekeeping();
  void housekeeping_tick();
  /// Re-derive `vcpu`'s bits of queued_ and idle_ after its current
  /// task or its runqueue changed.
  void refresh_masks(int vcpu);
  /// Guest periodic load balance: push queued work to halted vCPUs (the
  /// guest's timer-tick balancing; without it an HLT'd vCPU would sleep
  /// through imbalance forever).
  void balance_idle_vcpus();
  /// Fairness rotation: with a persistent 1-task surplus, migrate the
  /// surplus periodically so every task gets a fair global share (what
  /// CFS's load balancer achieves on real hardware).
  void rotate_surplus_task();

  Host* host_;
  Config config_;
  Rng rng_;
  std::vector<VcpuState> vcpus_;
  /// {0, ..., vcpus()-1}, built once: every allowed-mask query starts
  /// from it instead of rebuilding it per call.
  hw::CpuSet all_vcpus_;
  /// vCPUs with a non-empty runqueue, so a steal visits only them:
  /// visiting every vCPU in ascending order picks the same victim, since
  /// an empty queue never wins. idle_ holds the vCPUs with no current
  /// task and an empty runqueue, so placement is `allowed & idle_` and
  /// one pick. Both are refreshed by refresh_masks().
  hw::CpuSet queued_;
  hw::CpuSet idle_;
  os::TaskTable tasks_;
  os::CgroupTable cgroups_;
  bool housekeeping_active_ = false;
  sim::Timer housekeeping_;  // the guest's cgroup / balance tick
  std::int64_t housekeeping_ticks_ = 0;
  GuestStats stats_;
};

}  // namespace pinsim::virt
