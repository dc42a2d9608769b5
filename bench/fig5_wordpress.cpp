// Figure 5: WordPress mean response time over 1,000 simultaneous web
// requests, xLarge through 16xLarge, 6 repetitions (the paper's protocol
// for this workload).
//
// Paper shape to reproduce:
//  - vanilla CN is the worst platform at small sizes (about twice BM at
//    the small end) and converges toward BM as cores grow;
//  - pinned CN imposes the lowest overhead;
//  - VMCN is slightly cheaper than the plain VM;
//  - pinned VM consistently beats vanilla VM.
#include "bench_common.hpp"
#include "workload/wordpress.hpp"

int main(int argc, char** argv) {
  using namespace pinsim;
  const bench::BenchOptions options = bench::parse_cli(argc, argv);
  bench::Stopwatch stopwatch;
  core::print_header(std::cout, "Figure 5",
                     "WordPress mean response time (1,000 requests)");

  const core::ExperimentRunner runner = bench::make_runner(6, options);
  core::FigureSpec spec;
  spec.title = "Figure 5 — WordPress (1,000 simultaneous requests)";
  spec.instances = core::fig456_instances();
  spec.on_point = bench::progress_point;
  spec.jobs = options.jobs;

  const stats::Figure figure = core::build_figure(
      runner, spec, [](const virt::InstanceType&) {
        return [] { return std::make_unique<workload::WordPress>(); };
      });

  std::cout << '\n';
  core::print_figure_report(std::cout, figure, [] {
    core::ReportOptions report_options;
    report_options.precision = 3;  // sub-second response times
    return report_options;
  }());
  const double wall = stopwatch.seconds();
  std::cerr << "bench wall time: " << wall << " s\n";
  bench::maybe_write_json(options, "Figure 5",
                          runner.config().repetitions, wall, {&figure});
  bench::maybe_print_engine_stats(options);
  return 0;
}
