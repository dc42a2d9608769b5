// Figure 3: FFmpeg execution time on all execution platforms, Large
// through 4xLarge (FFmpeg utilizes at most 16 cores), 20 repetitions.
//
// Paper shape to reproduce:
//  - VM (vanilla and pinned) >= 2x BM at every size; pinning a VM does
//    not help.
//  - VMCN is the worst platform at Large and converges toward VM by
//    4xLarge.
//  - pinned CN tracks BM closely; vanilla CN's overhead shrinks as the
//    instance grows (PSO).
#include "bench_common.hpp"
#include "workload/ffmpeg.hpp"

int main(int argc, char** argv) {
  using namespace pinsim;
  const bench::BenchOptions options = bench::parse_cli(argc, argv);
  bench::Stopwatch stopwatch;
  core::print_header(std::cout, "Figure 3",
                     "FFmpeg transcode execution time by platform");

  const core::ExperimentRunner runner = bench::make_runner(20, options);
  core::FigureSpec spec;
  spec.title = "Figure 3 — FFmpeg (AVC->HEVC, 30 MB HD source)";
  spec.instances = core::fig3_instances();
  spec.on_point = bench::progress_point;
  spec.jobs = options.jobs;

  const stats::Figure figure = core::build_figure(
      runner, spec, [](const virt::InstanceType&) {
        return [] { return std::make_unique<workload::Ffmpeg>(); };
      });

  std::cout << '\n';
  core::print_figure_report(std::cout, figure);
  const double wall = stopwatch.seconds();
  std::cerr << "bench wall time: " << wall << " s\n";
  bench::maybe_write_json(options, "Figure 3",
                          runner.config().repetitions, wall, {&figure});
  bench::maybe_print_engine_stats(options);
  return 0;
}
