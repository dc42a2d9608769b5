// Table III: the four execution platforms, their stack specification
// (as in the paper), and a measured one-task smoke run per platform
// showing the layer cost each adds over bare-metal for a fixed
// CPU-bound task.
#include "bench_common.hpp"
#include "workload/ffmpeg.hpp"

int main() {
  using namespace pinsim;
  bench::Stopwatch stopwatch;
  core::print_header(std::cout, "Table III",
                     "Execution platforms and their layer costs");

  struct Row {
    const char* abbr;
    const char* platform;
    const char* specification;
    virt::PlatformKind kind;
  };
  const Row rows[] = {
      {"BM", "Bare-Metal", "host kernel only (GRUB-limited cores)",
       virt::PlatformKind::BareMetal},
      {"VM", "Virtual Machine",
       "KVM-style hypervisor, vCPU host tasks, guest kernel, virtio IO",
       virt::PlatformKind::Vm},
      {"CN", "Container on Bare-Metal",
       "namespace + cgroup (quota = cores x period) on the host kernel",
       virt::PlatformKind::Container},
      {"VMCN", "Container on VM", "guest-side cgroup inside the VM above",
       virt::PlatformKind::VmContainer},
  };

  const auto& instance = virt::instance_by_name("xLarge");
  const int reps = bench::repetitions_or(5);

  double bm_mean = 0.0;
  stats::TextTable table(
      {"Abbr.", "Platform", "Specification", "FFmpeg xLarge (s)",
       "vs BM"});
  for (const Row& row : rows) {
    stats::Accumulator samples;
    for (int rep = 0; rep < reps; ++rep) {
      const std::uint64_t seed = 7 + 1000003ull * static_cast<unsigned>(rep);
      const virt::PlatformSpec spec{row.kind, virt::CpuMode::Vanilla,
                                    instance};
      virt::Host host(
          virt::host_topology_for(spec, hw::Topology::dell_r830()),
          hw::CostModel{}, seed);
      auto platform = virt::make_platform(host, spec);
      workload::Ffmpeg ffmpeg;
      samples.add(ffmpeg.run(*platform, Rng(seed)).metric_seconds);
    }
    const double mean = samples.mean();
    if (row.kind == virt::PlatformKind::BareMetal) bm_mean = mean;
    std::ostringstream mean_os, ratio_os;
    mean_os << std::fixed << std::setprecision(2) << mean;
    ratio_os << std::fixed << std::setprecision(2)
             << (bm_mean > 0 ? mean / bm_mean : 1.0) << "x";
    table.add_row({row.abbr, row.platform, row.specification, mean_os.str(),
                   ratio_os.str()});
  }
  std::cout << table.render()
            << "\n(Software stack as in the paper: Ubuntu 18.04.3 / kernel "
               "5.4.5, QEMU 2.11.1 + Libvirt 4, Docker 19.03.6 — modelled "
               "by the simulator's cost constants.)\n";
  std::cerr << "bench wall time: " << stopwatch.seconds() << " s\n";
  return 0;
}
