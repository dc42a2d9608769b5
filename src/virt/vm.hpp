// KVM-style virtual machine platforms: VM and a container inside a VM
// (VMCN).
//
// The VM's vCPUs are ordinary host tasks (QEMU vCPU threads); the guest
// workload runs under a GuestKernel whose CPU time advances only when the
// host schedules those tasks. Vanilla VMs let the vCPU threads float over
// the host; pinned VMs bind each vCPU 1:1 to a compact host cpuset (the
// libvirt <vcpupin> configuration the paper uses).
//
// A VMCN is the same VM plus a Docker-style cgroup *inside* the guest
// kernel — the composition the paper highlights as under-studied.
// Workload tasks pay both the hypervisor's platform-type overhead and the
// guest-side cgroup accounting. Pinned VMCN pins on both levels: vCPUs to
// host cpus and container tasks to vCPUs (guest cpuset + sticky wakeups).
#pragma once

#include <memory>
#include <vector>

#include "os/cgroup.hpp"
#include "virt/guest.hpp"
#include "virt/platform.hpp"

namespace pinsim::virt {

class VmPlatform final : public Platform {
 public:
  VmPlatform(Host& host, PlatformSpec spec);

  os::Task& spawn(WorkTaskConfig config,
                  std::unique_ptr<os::TaskDriver> driver) override;
  void start(os::Task& task) override;
  void post(os::Task& task, int count) override;
  int visible_cpus() const override;

  GuestKernel& guest() { return guest_; }
  const std::vector<os::Task*>& vcpu_tasks() const { return vcpu_tasks_; }
  /// The container's guest cgroup; null on a plain VM.
  const os::Cgroup* cgroup() const { return cgroup_; }

 private:
  GuestKernel guest_;
  std::vector<os::Task*> vcpu_tasks_;
  os::Cgroup* cgroup_ = nullptr;
};

}  // namespace pinsim::virt
