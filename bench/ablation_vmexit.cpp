// Ablation A3: sweep the VM-exit and guest-compute-inflation costs to
// show which VM conclusions depend on which hypervisor constant:
// the FFmpeg 2x is inflation-driven (paper's PTO), while the IO
// workloads respond to the exit/virtio path.
#include "bench_common.hpp"
#include "workload/cassandra.hpp"
#include "workload/ffmpeg.hpp"

namespace {

using namespace pinsim;

double mean_metric(virt::PlatformKind kind, workload::Workload& workload,
                   const hw::CostModel& costs, int repetitions) {
  stats::Accumulator samples;
  for (int rep = 0; rep < repetitions; ++rep) {
    const std::uint64_t seed = 42 + 1000003ull * static_cast<unsigned>(rep);
    const virt::PlatformSpec spec{kind, virt::CpuMode::Vanilla,
                                  virt::instance_by_name("xLarge")};
    virt::Host host(virt::host_topology_for(spec, hw::Topology::dell_r830()),
                    costs, seed);
    auto platform = virt::make_platform(host, spec);
    samples.add(
        workload.run(*platform, Rng(seed ^ 0x9e37ull)).metric_seconds);
  }
  return samples.mean();
}

}  // namespace

int main() {
  using namespace pinsim;
  bench::Stopwatch stopwatch;
  core::print_header(std::cout, "Ablation A3",
                     "hypervisor constants vs VM overhead (xLarge)");

  const int reps = bench::repetitions_or(3);
  stats::TextTable table({"inflation", "vmexit (us)",
                          "ffmpeg VM/BM", "cassandra VM/BM"});
  struct Point {
    double inflation;
    int vmexit_us;
  };
  for (const Point point : {Point{1.0, 0}, Point{1.0, 8}, Point{1.5, 8},
                            Point{1.95, 8}, Point{1.95, 40}}) {
    hw::CostModel costs;
    costs.guest_compute_inflation = point.inflation;
    costs.vmexit = usec(point.vmexit_us);
    workload::Ffmpeg ffmpeg;
    workload::Cassandra cassandra;
    const double ffmpeg_vm =
        mean_metric(virt::PlatformKind::Vm, ffmpeg, costs, reps);
    const double ffmpeg_bm =
        mean_metric(virt::PlatformKind::BareMetal, ffmpeg, costs, reps);
    const double cass_vm =
        mean_metric(virt::PlatformKind::Vm, cassandra, costs, reps);
    const double cass_bm =
        mean_metric(virt::PlatformKind::BareMetal, cassandra, costs, reps);
    auto num = [](double x) {
      std::ostringstream os;
      os << std::fixed << std::setprecision(2) << x << "x";
      return os.str();
    };
    std::ostringstream inflation_os;
    inflation_os << std::fixed << std::setprecision(2) << point.inflation;
    table.add_row({inflation_os.str(), std::to_string(point.vmexit_us),
                   num(ffmpeg_vm / ffmpeg_bm), num(cass_vm / cass_bm)});
  }
  std::cout << table.render()
            << "\nReading: the FFmpeg VM ratio tracks the compute "
               "inflation (the paper's platform-type overhead); the IO "
               "workload is far less sensitive to it.\n";
  std::cerr << "bench wall time: " << stopwatch.seconds() << " s\n";
  return 0;
}
