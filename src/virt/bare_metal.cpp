#include "virt/bare_metal.hpp"

#include "util/check.hpp"

namespace pinsim::virt {

BareMetalPlatform::BareMetalPlatform(Host& host, PlatformSpec spec)
    : Platform(host, std::move(spec)) {
  PINSIM_CHECK(spec_.kind == PlatformKind::BareMetal);
  PINSIM_CHECK_MSG(
      host.topology().num_cpus() == spec_.instance.cores,
      "bare-metal host must be GRUB-limited to the instance size ("
          << host.topology().num_cpus() << " cpus vs "
          << spec_.instance.cores << " cores)");
}

os::Task& BareMetalPlatform::spawn(WorkTaskConfig config,
                                   std::unique_ptr<os::TaskDriver> driver) {
  os::TaskConfig task_config;
  task_config.working_set_mb = config.working_set_mb;
  task_config.weight = config.weight;
  task_config.on_exit = std::move(config.on_exit);
  task_config.numa_home = config.numa_home != nullptr
                              ? std::move(config.numa_home)
                              : std::make_shared<int>(-1);
  task_config.device_local_start = config.network_born;
  return host_->kernel().create_task(std::move(config.name),
                                     std::move(driver),
                                     std::move(task_config));
}

void BareMetalPlatform::start(os::Task& task) {
  host_->kernel().start_task(task);
}

void BareMetalPlatform::post(os::Task& task, int count) {
  host_->kernel().post_external(task, count);
}

int BareMetalPlatform::visible_cpus() const { return spec_.instance.cores; }

}  // namespace pinsim::virt
