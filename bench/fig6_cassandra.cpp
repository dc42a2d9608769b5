// Figure 6: Cassandra mean operation response time (1,000 ops, 100
// stress threads, 25% writes), xLarge through 16xLarge, 20 repetitions.
// The Large instance thrashes and is excluded, exactly as in the paper.
//
// Paper shape to reproduce:
//  - vanilla CN imposes the largest overhead (3.5x+ BM at the small
//    end), diminishing with more cores;
//  - pinned CN imposes the lowest overhead and can even beat BM at
//    xLarge..4xLarge (the BM scheduler is IO-affinity-oblivious);
//  - the pinning benefit vanishes at 8xLarge/16xLarge;
//  - VM-based platforms show increased overhead at 8xLarge and beyond.
#include "bench_common.hpp"
#include "workload/cassandra.hpp"

int main(int argc, char** argv) {
  using namespace pinsim;
  const bench::BenchOptions options = bench::parse_cli(argc, argv);
  bench::Stopwatch stopwatch;
  core::print_header(std::cout, "Figure 6",
                     "Cassandra mean response time (1,000 ops, 100 threads)");

  const core::ExperimentRunner runner = bench::make_runner(20, options);
  core::FigureSpec spec;
  spec.title = "Figure 6 — Cassandra (cassandra-stress, 25% writes)";
  spec.instances = core::fig456_instances();
  spec.on_point = bench::progress_point;
  spec.jobs = options.jobs;

  const stats::Figure figure = core::build_figure(
      runner, spec, [](const virt::InstanceType&) {
        return [] { return std::make_unique<workload::Cassandra>(); };
      });

  std::cout << '\n';
  core::print_figure_report(std::cout, figure, [] {
    core::ReportOptions report_options;
    report_options.precision = 3;
    return report_options;
  }());
  const double wall = stopwatch.seconds();
  std::cerr << "bench wall time: " << wall << " s\n";
  bench::maybe_write_json(options, "Figure 6",
                          runner.config().repetitions, wall, {&figure});
  bench::maybe_print_engine_stats(options);
  return 0;
}
