// Every calibration constant of the simulation, in one place.
//
// Each cost corresponds to a real mechanism the paper identifies as a
// source of overhead. Defaults are calibrated so that the platform
// overhead *ratios* land in the bands the paper reports on its testbed
// (see EXPERIMENTS.md). The ablation benches sweep individual knobs to
// show which conclusions are robust to the calibration.
#pragma once

#include "util/units.hpp"

namespace pinsim::hw {

struct CostModel {
  // --- Kernel scheduling costs -------------------------------------------
  /// Direct cost of a context switch (register/state swap, pipeline drain).
  SimDuration context_switch = usec(3);
  /// User->kernel mode transition (syscall / interrupt entry+exit).
  SimDuration kernel_entry = nsec(400);
  /// Scheduler bookkeeping on a wakeup: enqueue, dequeue, pick-next.
  SimDuration sched_pick = usec(1);
  /// Servicing a device interrupt on the receiving core.
  SimDuration irq_service = usec(5);

  // --- Cache / migration penalties ---------------------------------------
  /// Cache-refill penalty per MB of task working set, by migration
  /// distance. Refilling from a shared L2 (SMT sibling) is nearly free;
  /// refilling across sockets streams the working set from DRAM
  /// (~10 GB/s => ~100 us/MB).
  SimDuration refill_per_mb_smt = usec(2);
  SimDuration refill_per_mb_socket = usec(35);
  SimDuration refill_per_mb_cross = usec(100);
  /// Extra penalty when an IO-bound task is migrated: interrupt routing
  /// and IO channels must be re-established on the new core (paper §IV-C).
  SimDuration io_channel_reestablish = usec(60);
  /// NUMA: compute executed on a socket remote from the task's memory
  /// home runs this much slower (remote DRAM latency). First-touch
  /// placement sets the home; scattered vanilla platforms therefore run
  /// much of their work remote, NUMA-compact pinned cpusets do not.
  double numa_remote_tax = 0.40;
  /// wake_affine cache-hot window: a task blocked for less than this is
  /// still cache-hot on its previous cpu and wakes there; blocked longer
  /// it follows the waker/IRQ locality hint instead.
  SimDuration cache_hot_window = msec(2);

  // --- cgroups CPU controller (paper §IV-B) -------------------------------
  /// Per scheduling-event usage-tracking charge for a grouped task
  /// (one user->kernel transition per invocation).
  SimDuration cgroup_account = usec(2);
  /// Atomic usage aggregation across cores: base + per-distinct-core cost.
  /// The group is effectively suspended while it runs.
  SimDuration cgroup_aggregate_base = usec(10);
  SimDuration cgroup_aggregate_per_core = usec(4);
  /// How often the aggregation runs.
  SimDuration cgroup_aggregate_interval = msec(1);
  /// CFS bandwidth: runtime is handed to cores in slices of this size;
  /// small slices on many cores = frequent refill traffic (kernel's
  /// sched_cfs_bandwidth_slice_us default is 5 ms).
  SimDuration cfs_bandwidth_slice = msec(5);
  /// CFS bandwidth enforcement period (kernel default 100 ms).
  SimDuration cfs_period = msec(100);

  // --- Hypervisor (KVM/QEMU as configured in the paper) -------------------
  /// Multiplier on guest user-mode compute. The paper measures FFmpeg in
  /// a VM at >= 2x bare-metal across all instance sizes (their QEMU 2.11
  /// stack without host CPU passthrough); this constant is that measured
  /// platform-type overhead.
  double guest_compute_inflation = 1.95;
  /// One VM exit / entry round trip.
  SimDuration vmexit = usec(8);
  /// Para-virtual (virtio) IO: extra host-side cost per guest IO request
  /// on top of the vmexit.
  SimDuration virtio_io_overhead = usec(30);
  /// Guest timer tick period (250 Hz kernel); each tick costs one vmexit
  /// while the vCPU runs.
  SimDuration guest_tick_period = msec(4);
  /// Cost charged inside the guest for a guest context switch, on top of
  /// the plain context switch (shadow state bookkeeping).
  SimDuration guest_context_switch_extra = usec(1);
  /// Inter-rank message delivered entirely inside one guest via the
  /// hypervisor-provided shared memory (paper §III-B2: the hypervisor
  /// "facilitates inter-core communication").
  SimDuration guest_ipc = usec(4);
  /// KVM halt-polling (halt_poll_ns): an idle vCPU busy-polls this long
  /// before actually halting, so short guest idle gaps (message waits)
  /// cost no HLT exit / kick IPI.
  SimDuration halt_poll = usec(200);
  /// Granularity at which a polling vCPU notices newly runnable work.
  SimDuration halt_poll_chunk = usec(25);
  /// Granularity at which a user-space spin-wait (MPI receive polling)
  /// notices a delivered message.
  SimDuration spin_poll_chunk = usec(50);

  // --- Host-mediated IPC (bare-metal / container message passing) ---------
  /// Inter-process message through the host kernel (pipe/shm + futex
  /// wake): syscall + wake chain, before any cgroup tax.
  SimDuration host_ipc = usec(6);
  /// Extra per-message cost when both endpoints live inside a container:
  /// socket traffic crosses the veth/bridge network path (NAT + softirq)
  /// instead of raw shared memory — the "host OS intervention" the paper
  /// blames for containers being the worst MPI platform (§III-B2).
  SimDuration container_net_msg = usec(10);

  CostModel() = default;

  /// Floor for the sharded engine's lookahead: the smallest delay any
  /// cross-domain interaction the model prices can take (task
  /// migration refill, IPC delivery, a vmexit, a virtio round trip).
  /// Events that cross event-shard boundaries always ride one of those
  /// mechanisms, so a sharded round may advance every shard this far
  /// past the global minimum without reordering anything (DESIGN.md §7).
  /// cluster::Fleet checks its dispatch latency against this floor and
  /// uses that latency as its lookahead. Never below 1 simulated ns — a
  /// zero lookahead would make the conservative window empty.
  SimDuration min_cross_shard_latency() const;
};

}  // namespace pinsim::hw
