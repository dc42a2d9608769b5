// §VI: the best-practice rule engine, plus an end-to-end verification
// that re-derives practices 1-4 from freshly simulated CPU-bound
// (FFmpeg) and IO-bound (WordPress) figures.
#include "bench_common.hpp"
#include "core/best_practices.hpp"
#include "workload/ffmpeg.hpp"
#include "workload/wordpress.hpp"

int main(int argc, char** argv) {
  using namespace pinsim;
  const bench::BenchOptions options = bench::parse_cli(argc, argv);
  bench::Stopwatch stopwatch;
  core::print_header(std::cout, "Best practices (paper §VI)",
                     "rule engine + verification against simulated data");

  std::cout << "The paper's five practices:\n";
  for (const auto& text : core::practice_texts()) {
    std::cout << "  " << text << '\n';
  }

  std::cout << "\nAdvisor examples:\n";
  struct Example {
    const char* description;
    core::DeploymentQuery query;
  };
  const Example examples[] = {
      {"CPU-bound app, pinning allowed",
       {workload::AppClass::CpuBound, true, false}},
      {"NoSQL app, pinning not allowed",
       {workload::AppClass::IoNoSql, false, false}},
      {"web app, VM isolation required",
       {workload::AppClass::IoWeb, true, true}},
  };
  for (const Example& example : examples) {
    const auto recs = core::recommend(example.query);
    std::cout << "  " << example.description << " -> "
              << recs.front().label() << " (" << recs.front().rationale
              << ")\n";
  }

  std::cout << "\nVerifying practices 1-4 against fresh simulation data...\n";
  const core::ExperimentRunner runner = bench::make_runner(5, options);

  core::FigureSpec cpu_spec;
  cpu_spec.title = "cpu";
  cpu_spec.instances = {"Large", "xLarge", "2xLarge"};
  cpu_spec.jobs = options.jobs;
  const stats::Figure cpu_figure = core::build_figure(
      runner, cpu_spec, [](const virt::InstanceType&) {
        return [] { return std::make_unique<workload::Ffmpeg>(); };
      });

  core::FigureSpec io_spec;
  io_spec.title = "io";
  io_spec.instances = {"xLarge", "2xLarge"};
  io_spec.jobs = options.jobs;
  const stats::Figure io_figure = core::build_figure(
      runner, io_spec, [](const virt::InstanceType&) {
        return [] { return std::make_unique<workload::WordPress>(); };
      });

  bool all_hold = true;
  for (const auto& check : core::verify_practices(cpu_figure, io_figure)) {
    std::cout << "  practice " << check.practice << ": "
              << (check.holds ? "HOLDS" : "DOES NOT HOLD") << " — "
              << check.evidence << '\n';
    all_hold = all_hold && check.holds;
  }
  std::cout << (all_hold ? "All verified practices hold.\n"
                         : "Some practices did not verify; see above.\n");
  const double wall = stopwatch.seconds();
  std::cerr << "bench wall time: " << wall << " s\n";
  bench::maybe_write_json(options, "Best practices",
                          runner.config().repetitions, wall,
                          {&cpu_figure, &io_figure});
  bench::maybe_print_engine_stats(options);
  return 0;
}
