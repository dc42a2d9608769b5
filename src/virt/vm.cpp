#include "virt/vm.hpp"

#include "util/check.hpp"
#include "virt/pinning.hpp"

namespace pinsim::virt {

namespace {

/// Hot guest state a vCPU thread drags along when the host migrates it
/// (guest kernel + the share of the app working set it runs).
constexpr double kVcpuWorkingSetMb = 16.0;

/// Host-task driver backing one vCPU: runs guest bursts while the guest
/// core has work, halts (blocks) otherwise until kicked.
class VcpuDriver final : public os::TaskDriver {
 public:
  VcpuDriver(GuestKernel& guest, int vcpu, const hw::CostModel& costs)
      : guest_(&guest), vcpu_(vcpu), costs_(&costs) {}

  os::Action next(os::Task& task) override {
    if (outstanding_) {
      outstanding_ = false;
      guest_->complete_burst(vcpu_);
    }
    const auto burst = guest_->next_burst(vcpu_);
    if (!burst.has_value()) {
      // HLT: one exit, then wait for a kick.
      task.overhead_debt += costs_->vmexit;
      return os::Action::recv();
    }
    outstanding_ = true;
    return os::Action::compute(*burst);
  }

 private:
  GuestKernel* guest_;
  int vcpu_;
  const hw::CostModel* costs_;
  bool outstanding_ = false;
};

}  // namespace

VmPlatform::VmPlatform(Host& host, PlatformSpec spec)
    : Platform(host, std::move(spec)), guest_(host, spec_.instance.cores) {
  PINSIM_CHECK(spec_.kind == PlatformKind::Vm ||
               spec_.kind == PlatformKind::VmContainer);
  PINSIM_CHECK_MSG(spec_.instance.cores <= host.topology().num_cpus(),
                   "VM has more vCPUs than the host has cpus");

  const std::vector<hw::CpuId> pin_map =
      spec_.mode == CpuMode::Pinned
          ? pinned_vcpu_map(host.topology(), spec_.instance.cores)
          : std::vector<hw::CpuId>{};

  for (int vcpu = 0; vcpu < spec_.instance.cores; ++vcpu) {
    os::TaskConfig config;
    config.working_set_mb = kVcpuWorkingSetMb;
    if (spec_.mode == CpuMode::Pinned) {
      config.affinity =
          hw::CpuSet::of({pin_map[static_cast<std::size_t>(vcpu)]});
    }
    os::Task& task = host.kernel().create_task(
        "vcpu" + std::to_string(vcpu),
        std::make_unique<VcpuDriver>(guest_, vcpu, host.costs()), config);
    guest_.attach_vcpu_task(vcpu, task);
    vcpu_tasks_.push_back(&task);
    host.kernel().start_task(task);
  }

  if (spec_.kind == PlatformKind::VmContainer) {
    os::Cgroup::Config cgroup;
    cgroup.name = "vmcn-" + spec_.instance.name;
    // docker --cpus=<instance cores> inside the guest.
    cgroup.cpu_limit = static_cast<double>(spec_.instance.cores);
    if (spec_.mode == CpuMode::Pinned) {
      // --cpuset-cpus over the guest's vCPUs.
      cgroup.cpuset = hw::CpuSet::first_n(spec_.instance.cores);
    }
    cgroup_ = &guest_.create_cgroup(std::move(cgroup));
  }
}

os::Task& VmPlatform::spawn(WorkTaskConfig config,
                            std::unique_ptr<os::TaskDriver> driver) {
  os::TaskConfig task_config;
  task_config.working_set_mb = config.working_set_mb;
  task_config.cgroup = cgroup_;
  // The hypervisor's measured compute inflation, scaled by how much of
  // this task's time is really user-space compute.
  task_config.compute_inflation =
      1.0 + (host_->costs().guest_compute_inflation - 1.0) *
                config.guest_inflation_sensitivity;
  task_config.on_exit = std::move(config.on_exit);
  os::Task& task = guest_.create_task(std::move(config.name),
                                      std::move(driver),
                                      std::move(task_config));
  task.sticky_wakeup = cgroup_ != nullptr && spec_.mode == CpuMode::Pinned;
  return task;
}

void VmPlatform::start(os::Task& task) { guest_.start_task(task); }

void VmPlatform::post(os::Task& task, int count) {
  guest_.post_external(task, count);
}

int VmPlatform::visible_cpus() const { return spec_.instance.cores; }

}  // namespace pinsim::virt
