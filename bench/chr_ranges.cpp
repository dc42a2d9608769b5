// §IV-A / best practice 5: derive the recommended CHR ranges from fresh
// simulation data. For each application class, sweep the vanilla
// container across instance sizes on the 112-core host, compute the
// overhead ratio against bare-metal, and find where the PSO vanishes.
#include <algorithm>

#include "bench_common.hpp"
#include "core/chr_advisor.hpp"
#include "workload/profiles.hpp"

namespace {

using namespace pinsim;

bool instance_in_sweep(workload::AppClass cls,
                       const virt::InstanceType& instance) {
  // FFmpeg tops out at 16 cores; skip sizes the paper does not run.
  if (cls == workload::AppClass::CpuBound && instance.cores > 16) {
    return false;
  }
  // Large thrashes for the server workloads.
  if (cls != workload::AppClass::CpuBound && instance.cores < 4) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pinsim;
  const bench::BenchOptions options = bench::parse_cli(argc, argv);
  bench::Stopwatch stopwatch;
  core::print_header(std::cout, "CHR ranges (best practice 5)",
                     "re-deriving the recommended CHR per application class");

  const core::ExperimentRunner runner = bench::make_runner(5, options);
  const hw::Topology host_topology = hw::Topology::dell_r830();

  // One flat cell list across apps × instances × {CN, BM}, fanned out in
  // a single measure_all sweep.
  const auto apps = workload::table1_applications();
  std::vector<core::SweepCell> cells;
  struct CellKey {
    std::size_t app;
    const virt::InstanceType* instance;
  };
  std::vector<CellKey> keys;  // one per CN/BM cell pair
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const workload::AppClass cls = apps[a].cls;
    const core::WorkloadFactory factory = [cls] {
      return workload::make_workload(cls);
    };
    for (const auto& instance : virt::instance_catalog()) {
      if (!instance_in_sweep(cls, instance)) continue;
      cells.push_back(core::SweepCell{
          virt::PlatformSpec{virt::PlatformKind::Container,
                             virt::CpuMode::Vanilla, instance},
          factory, std::nullopt});
      cells.push_back(core::SweepCell{
          virt::PlatformSpec{virt::PlatformKind::BareMetal,
                             virt::CpuMode::Vanilla, instance},
          factory, std::nullopt});
      keys.push_back(CellKey{a, &instance});
    }
  }
  const std::vector<core::Measurement> results =
      runner.measure_all(cells, options.jobs);

  // The derived points double as a machine-readable figure: one series
  // per app class, x = instance, y = CN/BM overhead ratio.
  std::vector<std::string> x_labels;
  for (const auto& instance : virt::instance_catalog()) {
    x_labels.push_back(instance.name);
  }
  stats::Figure ratio_figure("CHR sweep — vanilla CN / BM overhead ratio",
                             x_labels);
  for (const auto& app : apps) ratio_figure.add_series(app.name);

  stats::TextTable table({"app class", "paper range", "derived range",
                          "points (CHR:ratio)"});
  std::vector<std::vector<core::ChrPoint>> app_points(apps.size());
  std::vector<std::ostringstream> app_text(apps.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const CellKey& key = keys[i];
    const double cn_mean = results[2 * i].samples.mean();
    const double bm_mean = results[2 * i + 1].samples.mean();
    core::ChrPoint point;
    point.chr = core::chr_of(*key.instance, host_topology);
    point.overhead_ratio = cn_mean / bm_mean;
    app_points[key.app].push_back(point);
    app_text[key.app] << std::fixed << std::setprecision(2) << point.chr
                      << ":" << point.overhead_ratio << " ";
    const auto x = static_cast<std::size_t>(
        std::find(x_labels.begin(), x_labels.end(), key.instance->name) -
        x_labels.begin());
    ratio_figure.mutable_series(apps[key.app].name)
        ->set(x, stats::Interval{point.overhead_ratio, 0.0});
  }

  for (std::size_t a = 0; a < apps.size(); ++a) {
    const auto derived = core::derive_chr_range(app_points[a], 1.2);
    const core::ChrRange paper = core::paper_chr_range(apps[a].cls);
    std::ostringstream paper_os, derived_os;
    paper_os << paper.low << " < CHR < " << paper.high;
    if (derived.has_value()) {
      derived_os << std::fixed << std::setprecision(2) << derived->low
                 << " < CHR < " << derived->high;
    } else {
      derived_os << "(overhead never settles below 1.2x)";
    }
    table.add_row({apps[a].name, paper_os.str(), derived_os.str(),
                   app_text[a].str()});
  }
  std::cout << table.render()
            << "\nFinding: IO-intensive applications need a higher CHR than "
               "CPU-intensive ones (paper §IV-A).\n";
  const double wall = stopwatch.seconds();
  std::cerr << "bench wall time: " << wall << " s\n";
  bench::maybe_write_json(options, "CHR ranges",
                          runner.config().repetitions, wall, {&ratio_figure});
  bench::maybe_print_engine_stats(options);
  return 0;
}
