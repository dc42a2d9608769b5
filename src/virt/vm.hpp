// KVM-style virtual machine platform (VM).
//
// The VM's vCPUs are ordinary host tasks (QEMU vCPU threads); the guest
// workload runs under a GuestKernel whose CPU time advances only when the
// host schedules those tasks. Vanilla VMs let the vCPU threads float over
// the host; pinned VMs bind each vCPU 1:1 to a compact host cpuset (the
// libvirt <vcpupin> configuration the paper uses).
#pragma once

#include <memory>
#include <vector>

#include "virt/guest.hpp"
#include "virt/platform.hpp"

namespace pinsim::virt {

struct VmConfig {
  /// Hot guest state a vCPU thread drags along when the host migrates
  /// it (guest kernel + the share of the app working set it runs).
  double vcpu_working_set_mb = 16.0;
  /// Guest scheduler parameters (the validation tests set invalid ones
  /// here).
  os::SchedParams guest_params;
};

class VmPlatform : public Platform {
 public:
  VmPlatform(Host& host, PlatformSpec spec, VmConfig vm_config = {});

  os::Task& spawn(WorkTaskConfig config,
                  std::unique_ptr<os::TaskDriver> driver) override;
  void start(os::Task& task) override;
  void post(os::Task& task, int count) override;
  int visible_cpus() const override;

  GuestKernel& guest() { return guest_; }
  const std::vector<os::Task*>& vcpu_tasks() const { return vcpu_tasks_; }

 protected:
  /// Guest-side task configuration hook; VmContainerPlatform adds the
  /// guest cgroup and sticky wakeups here.
  virtual os::TaskConfig guest_task_config(const WorkTaskConfig& config);

  GuestKernel guest_;
  std::vector<os::Task*> vcpu_tasks_;
};

}  // namespace pinsim::virt
