// Table II: the instance-type catalog, with the CHR each size yields on
// the paper's 112-core host and a live verification that every platform
// honours the instance's core count.
#include "bench_common.hpp"
#include "core/chr_advisor.hpp"
#include "virt/native.hpp"
#include "virt/vm.hpp"

int main() {
  using namespace pinsim;
  bench::Stopwatch stopwatch;
  core::print_header(std::cout, "Table II",
                     "Instance types used for evaluation");

  const hw::Topology host_topology = hw::Topology::dell_r830();
  stats::TextTable table({"Instance Type", "No. of Cores", "Memory (GB)",
                          "CHR on 112-core host", "verified"});
  for (const auto& instance : virt::instance_catalog()) {
    // Verify: a VM exposes exactly `cores` vCPUs and a pinned container
    // exactly `cores` cpuset cpus.
    virt::Host host(host_topology, hw::CostModel{}, 1);
    virt::VmPlatform vm(host,
                        {virt::PlatformKind::Vm, virt::CpuMode::Vanilla,
                         instance});
    virt::Host host2(host_topology, hw::CostModel{}, 1);
    virt::NativePlatform cn(
        host2,
        {virt::PlatformKind::Container, virt::CpuMode::Pinned, instance});
    const bool ok = vm.guest().vcpus() == instance.cores &&
                    cn.cgroup()->cpuset().count() == instance.cores;
    std::ostringstream chr;
    chr << std::fixed << std::setprecision(3)
        << core::chr_of(instance, host_topology);
    table.add_row({instance.name, std::to_string(instance.cores),
                   std::to_string(instance.memory_gb), chr.str(),
                   ok ? "yes" : "NO"});
  }
  std::cout << table.render();
  std::cerr << "bench wall time: " << stopwatch.seconds() << " s\n";
  return 0;
}
