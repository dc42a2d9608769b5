// Figure 7: the impact of the Container-to-Host core Ratio (CHR).
//
// The same 4xLarge (16-core) container runs on two homogeneous hosts:
// a 16-core host (CHR = 1) and the 112-core testbed (CHR = 0.14), in
// vanilla and pinned mode, plus bare-metal with 16 cores as the
// reference. Paper shape: the identical container is slower on the
// larger host — lower CHR means higher Platform-Size Overhead.
#include "bench_common.hpp"
#include "core/chr_advisor.hpp"
#include "workload/ffmpeg.hpp"

int main(int argc, char** argv) {
  using namespace pinsim;
  const bench::BenchOptions options = bench::parse_cli(argc, argv);
  bench::Stopwatch stopwatch;
  core::print_header(std::cout, "Figure 7",
                     "CHR: one 4xLarge container on 16- vs 112-core hosts");

  const core::ExperimentRunner runner = bench::make_runner(20, options);
  const hw::Topology small = hw::Topology::small_host_16();
  const hw::Topology big = hw::Topology::dell_r830();
  const core::WorkloadFactory ffmpeg = [] {
    return std::make_unique<workload::Ffmpeg>();
  };
  const auto& instance = virt::instance_by_name("4xLarge");
  auto cell = [&](virt::PlatformKind kind, virt::CpuMode mode,
                  const hw::Topology& host) {
    return core::SweepCell{virt::PlatformSpec{kind, mode, instance}, ffmpeg,
                           host};
  };

  // Cell order mirrors the figure: the 16-core host's three bars, then
  // the 112-core host's two (no BM reference there).
  const std::vector<core::SweepCell> cells = {
      cell(virt::PlatformKind::Container, virt::CpuMode::Vanilla, small),
      cell(virt::PlatformKind::Container, virt::CpuMode::Pinned, small),
      cell(virt::PlatformKind::BareMetal, virt::CpuMode::Vanilla, small),
      cell(virt::PlatformKind::Container, virt::CpuMode::Vanilla, big),
      cell(virt::PlatformKind::Container, virt::CpuMode::Pinned, big),
  };
  const std::vector<core::Measurement> results =
      runner.measure_all(cells, options.jobs);

  stats::Figure figure("Figure 7 — FFmpeg on a 4xLarge container, by host",
                       {"16 cores (CHR=1)", "112 cores (CHR=0.14)"});
  figure.add_series("Vanilla CN");
  figure.add_series("Pinned CN");
  figure.add_series("Vanilla BM");
  figure.mutable_series("Vanilla CN")->set(0, results[0].interval());
  figure.mutable_series("Pinned CN")->set(0, results[1].interval());
  figure.mutable_series("Vanilla BM")->set(0, results[2].interval());
  figure.mutable_series("Vanilla CN")->set(1, results[3].interval());
  figure.mutable_series("Pinned CN")->set(1, results[4].interval());

  core::ReportOptions report_options;
  report_options.ratios = false;  // BM baseline only exists for 16 cores
  core::print_figure_report(std::cout, figure, report_options);

  const auto chr_small = core::chr_of(instance, small);
  const auto chr_big = core::chr_of(instance, big);
  std::cout << "CHR on 16-core host: " << chr_small
            << ", on 112-core host: " << chr_big << "\n"
            << "Finding: the same container imposes a higher overhead at "
               "the lower CHR (paper §IV-A).\n";
  const double wall = stopwatch.seconds();
  std::cerr << "bench wall time: " << wall << " s\n";
  bench::maybe_write_json(options, "Figure 7",
                          runner.config().repetitions, wall, {&figure});
  bench::maybe_print_engine_stats(options);
  return 0;
}
