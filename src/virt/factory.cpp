#include "virt/factory.hpp"

#include "util/check.hpp"
#include "virt/native.hpp"
#include "virt/vm.hpp"

namespace pinsim::virt {

hw::Topology host_topology_for(const PlatformSpec& spec,
                               const hw::Topology& full_host) {
  if (spec.kind == PlatformKind::BareMetal) {
    return full_host.limited_to(spec.instance.cores);
  }
  return full_host;
}

std::unique_ptr<Platform> make_platform(Host& host,
                                        const PlatformSpec& spec) {
  switch (spec.kind) {
    case PlatformKind::BareMetal:
    case PlatformKind::Container:
      return std::make_unique<NativePlatform>(host, spec);
    case PlatformKind::Vm:
    case PlatformKind::VmContainer:
      return std::make_unique<VmPlatform>(host, spec);
  }
  PINSIM_CHECK_MSG(false, "unknown platform kind");
  return nullptr;
}

std::vector<PlatformSpec> paper_series(const InstanceType& instance) {
  return {
      {PlatformKind::Vm, CpuMode::Vanilla, instance},
      {PlatformKind::Vm, CpuMode::Pinned, instance},
      {PlatformKind::VmContainer, CpuMode::Vanilla, instance},
      {PlatformKind::VmContainer, CpuMode::Pinned, instance},
      {PlatformKind::Container, CpuMode::Vanilla, instance},
      {PlatformKind::Container, CpuMode::Pinned, instance},
      {PlatformKind::BareMetal, CpuMode::Vanilla, instance},
  };
}

}  // namespace pinsim::virt
