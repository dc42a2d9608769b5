#include "virt/native.hpp"

#include "util/check.hpp"
#include "virt/pinning.hpp"

namespace pinsim::virt {

NativePlatform::NativePlatform(Host& host, PlatformSpec spec)
    : Platform(host, std::move(spec)) {
  if (spec_.kind == PlatformKind::BareMetal) {
    PINSIM_CHECK_MSG(
        host.topology().num_cpus() == spec_.instance.cores,
        "bare-metal host must be GRUB-limited to the instance size ("
            << host.topology().num_cpus() << " cpus vs "
            << spec_.instance.cores << " cores)");
    return;
  }
  PINSIM_CHECK(spec_.kind == PlatformKind::Container);
  os::Cgroup::Config config;
  config.name = "cn-" + spec_.instance.name;
  config.cpu_limit = static_cast<double>(spec_.instance.cores);
  if (spec_.mode == CpuMode::Pinned) {
    config.cpuset = pinned_cpuset(host.topology(), spec_.instance.cores);
  }
  cgroup_ = &host.kernel().create_cgroup(std::move(config));
}

os::Task& NativePlatform::spawn(WorkTaskConfig config,
                                std::unique_ptr<os::TaskDriver> driver) {
  os::TaskConfig task_config;
  task_config.working_set_mb = config.working_set_mb;
  task_config.cgroup = cgroup_;
  task_config.on_exit = std::move(config.on_exit);
  task_config.numa_home = config.numa_home != nullptr
                              ? std::move(config.numa_home)
                              : std::make_shared<int>(-1);
  task_config.device_local_start = config.network_born;
  os::Task& task = host_->kernel().create_task(std::move(config.name),
                                               std::move(driver),
                                               std::move(task_config));
  task.sticky_wakeup = cgroup_ != nullptr && spec_.mode == CpuMode::Pinned;
  return task;
}

void NativePlatform::start(os::Task& task) {
  host_->kernel().start_task(task);
}

void NativePlatform::post(os::Task& task, int count) {
  host_->kernel().post_external(task, count);
}

int NativePlatform::visible_cpus() const {
  // A vanilla container sees every host cpu (`nproc` inside Docker
  // reports the host's cpus unless a cpuset is configured) — which is
  // why applications that size their thread pools from the visible cpu
  // count over-thread inside small vanilla containers. A pinned
  // container sees exactly its cpuset, and bare metal its limited host.
  if (cgroup_ != nullptr && spec_.mode == CpuMode::Vanilla) {
    return host_->topology().num_cpus();
  }
  return spec_.instance.cores;
}

}  // namespace pinsim::virt
