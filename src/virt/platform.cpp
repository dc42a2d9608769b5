#include "virt/platform.hpp"

namespace pinsim::virt {

const char* to_string(PlatformKind kind) {
  switch (kind) {
    case PlatformKind::BareMetal:
      return "BM";
    case PlatformKind::Vm:
      return "VM";
    case PlatformKind::Container:
      return "CN";
    case PlatformKind::VmContainer:
      return "VMCN";
  }
  return "unknown";
}

const char* to_string(CpuMode mode) {
  switch (mode) {
    case CpuMode::Vanilla:
      return "Vanilla";
    case CpuMode::Pinned:
      return "Pinned";
  }
  return "unknown";
}

std::string PlatformSpec::label() const {
  return std::string(to_string(mode)) + " " + to_string(kind);
}

Host::Host(hw::Topology topology, hw::CostModel costs, std::uint64_t seed)
    : topology_(topology),
      costs_(costs),
      owned_engine_(std::make_unique<sim::Engine>()),
      engine_(owned_engine_.get()),
      rng_(seed),
      kernel_(*engine_, topology_, costs_, rng_.fork()),
      disk_(hw::IoDevice::raid1_hdd(*engine_, rng_.fork())),
      nic_(hw::IoDevice::gigabit_nic(*engine_, rng_.fork())) {}

Host::Host(sim::Engine& engine, hw::Topology topology, hw::CostModel costs,
           std::uint64_t seed)
    : topology_(topology),
      costs_(costs),
      engine_(&engine),
      rng_(seed),
      kernel_(*engine_, topology_, costs_, rng_.fork()),
      disk_(hw::IoDevice::raid1_hdd(*engine_, rng_.fork())),
      nic_(hw::IoDevice::gigabit_nic(*engine_, rng_.fork())) {}

}  // namespace pinsim::virt
