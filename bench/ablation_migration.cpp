// Ablation A2: sweep the cross-socket cache-refill penalty (and with it
// the NUMA remote tax held constant) to show how much of the vanilla
// container's FFmpeg overhead is cache/NUMA locality — the paper's
// §IV-C argument that pinning works by preserving cache and IO
// channels.
#include "bench_common.hpp"
#include "workload/ffmpeg.hpp"

namespace {

using namespace pinsim;

double mean_metric(virt::CpuMode mode, const hw::CostModel& costs,
                   int repetitions) {
  stats::Accumulator samples;
  for (int rep = 0; rep < repetitions; ++rep) {
    const std::uint64_t seed = 42 + 1000003ull * static_cast<unsigned>(rep);
    const virt::PlatformSpec spec{virt::PlatformKind::Container, mode,
                                  virt::instance_by_name("Large")};
    virt::Host host(hw::Topology::dell_r830(), costs, seed);
    auto platform = virt::make_platform(host, spec);
    workload::Ffmpeg ffmpeg;
    samples.add(
        ffmpeg.run(*platform, Rng(seed ^ 0x9e37ull)).metric_seconds);
  }
  return samples.mean();
}

}  // namespace

int main() {
  using namespace pinsim;
  bench::Stopwatch stopwatch;
  core::print_header(
      std::cout, "Ablation A2",
      "cache-refill / NUMA locality vs container overhead (FFmpeg, Large)");

  const int reps = bench::repetitions_or(3);
  stats::TextTable table({"cross-socket refill (us/MB)", "numa tax",
                          "vanilla CN (s)", "pinned CN (s)",
                          "vanilla/pinned"});
  struct Point {
    int refill_us;
    double numa_tax;
  };
  for (const Point point :
       {Point{0, 0.0}, Point{50, 0.2}, Point{100, 0.4}, Point{200, 0.8}}) {
    hw::CostModel costs;
    costs.refill_per_mb_cross = usec(point.refill_us);
    costs.numa_remote_tax = point.numa_tax;
    const double vanilla =
        mean_metric(virt::CpuMode::Vanilla, costs, reps);
    const double pinned = mean_metric(virt::CpuMode::Pinned, costs, reps);
    auto num = [](double x) {
      std::ostringstream os;
      os << std::fixed << std::setprecision(2) << x;
      return os.str();
    };
    table.add_row({std::to_string(point.refill_us), num(point.numa_tax),
                   num(vanilla), num(pinned), num(vanilla / pinned) + "x"});
  }
  std::cout << table.render()
            << "\nReading: the vanilla/pinned gap for CPU-bound work grows "
               "with locality costs; with them at zero, pinning stops "
               "mattering for compute.\n";
  std::cerr << "bench wall time: " << stopwatch.seconds() << " s\n";
  return 0;
}
