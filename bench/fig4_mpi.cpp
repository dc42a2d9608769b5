// Figure 4: MPI Search execution time on all execution platforms,
// xLarge through 16xLarge (one rank per instance core), 20 repetitions.
//
// Paper shape to reproduce:
//  - execution time declines with instance size on every platform;
//  - VM overhead is significant at small instances (computation-bound)
//    and fades toward bare-metal as communication dominates — the
//    hypervisor carries intra-VM messages without host involvement;
//  - containerized platforms (vanilla and pinned) are the worst at
//    scale: their messages cross the host kernel and the bridge path,
//    plus cgroup accounting on every scheduling event.
#include "bench_common.hpp"
#include "workload/mpi.hpp"

int main(int argc, char** argv) {
  using namespace pinsim;
  const bench::BenchOptions options = bench::parse_cli(argc, argv);
  bench::Stopwatch stopwatch;
  core::print_header(std::cout, "Figure 4",
                     "MPI Search execution time by platform");

  const core::ExperimentRunner runner = bench::make_runner(20, options);
  core::FigureSpec spec;
  spec.title = "Figure 4 — MPI Search (ranks = instance cores)";
  spec.instances = core::fig456_instances();
  spec.on_point = bench::progress_point;
  spec.jobs = options.jobs;

  const stats::Figure figure = core::build_figure(
      runner, spec, [](const virt::InstanceType&) {
        return [] { return std::make_unique<workload::MpiSearch>(); };
      });

  std::cout << '\n';
  core::print_figure_report(std::cout, figure);
  const double wall = stopwatch.seconds();
  std::cerr << "bench wall time: " << wall << " s\n";
  bench::maybe_write_json(options, "Figure 4",
                          runner.config().repetitions, wall, {&figure});
  bench::maybe_print_engine_stats(options);
  return 0;
}
