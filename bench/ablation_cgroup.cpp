// Ablation A1: sweep the cgroup usage-aggregation cost.
//
// DESIGN.md calls out the aggregation suspension as the model's PSO
// mechanism (paper §IV-B). This ablation sweeps the per-core walk cost
// from zero upward and shows that the vanilla-container penalty (and
// the pinning benefit) scales with it — i.e. the conclusion "pinning
// mitigates PSO" is driven by this mechanism, not by an accident of
// other constants.
#include "bench_common.hpp"
#include "workload/wordpress.hpp"

namespace {

using namespace pinsim;

double mean_metric(virt::CpuMode mode, const hw::CostModel& costs,
                   int repetitions) {
  stats::Accumulator samples;
  for (int rep = 0; rep < repetitions; ++rep) {
    const std::uint64_t seed = 42 + 1000003ull * static_cast<unsigned>(rep);
    const virt::PlatformSpec spec{virt::PlatformKind::Container, mode,
                                  virt::instance_by_name("2xLarge")};
    virt::Host host(hw::Topology::dell_r830(), costs, seed);
    auto platform = virt::make_platform(host, spec);
    workload::WordPress wp;
    samples.add(wp.run(*platform, Rng(seed ^ 0x9e37ull)).metric_seconds);
  }
  return samples.mean();
}

}  // namespace

int main() {
  using namespace pinsim;
  bench::Stopwatch stopwatch;
  core::print_header(std::cout, "Ablation A1",
                     "cgroup aggregation cost vs container overhead");

  const int reps = bench::repetitions_or(3);
  stats::TextTable table({"aggregate cost/core (us)", "vanilla CN (s)",
                          "pinned CN (s)", "vanilla/pinned"});
  for (const int per_core_us : {0, 2, 4, 8, 16}) {
    std::cout << "  sweeping per-core cost " << per_core_us << " us...\n"
              << std::flush;
    hw::CostModel costs;
    costs.cgroup_aggregate_per_core = usec(per_core_us);
    if (per_core_us == 0) costs.cgroup_aggregate_base = 0;
    const double vanilla =
        mean_metric(virt::CpuMode::Vanilla, costs, reps);
    const double pinned = mean_metric(virt::CpuMode::Pinned, costs, reps);
    auto num = [](double x) {
      std::ostringstream os;
      os << std::fixed << std::setprecision(3) << x;
      return os.str();
    };
    table.add_row({std::to_string(per_core_us), num(vanilla), num(pinned),
                   num(vanilla / pinned) + "x"});
  }
  std::cout << table.render()
            << "\nReading: with the aggregation cost at zero the vanilla "
               "container loses most of its penalty; the pinning benefit "
               "for IO workloads scales with this mechanism.\n";
  std::cerr << "bench wall time: " << stopwatch.seconds() << " s\n";
  return 0;
}
