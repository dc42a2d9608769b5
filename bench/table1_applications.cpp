// Table I: the four application types — paper specification plus the
// measured characterization of our workload models (where their tasks
// actually spend time on a bare-metal instance), verifying each model
// has the advertised character.
#include "bench_common.hpp"
#include "workload/profiles.hpp"

int main() {
  using namespace pinsim;
  bench::Stopwatch stopwatch;
  core::print_header(std::cout, "Table I",
                     "Application types and measured characterization");

  stats::TextTable table({"Type", "Version", "Characteristic (paper)",
                          "cpu%", "blocked%", "io/s", "msg/s",
                          "metric (s)"});
  for (const auto& app : workload::table1_applications()) {
    auto model = workload::make_workload(app.cls);
    const workload::MeasuredProfile profile =
        workload::measure_profile(*model, 16, 42);
    auto pct = [](double x) {
      std::ostringstream os;
      os << std::fixed << std::setprecision(0) << 100.0 * x << "%";
      return os.str();
    };
    auto num = [](double x, int precision = 1) {
      std::ostringstream os;
      os << std::fixed << std::setprecision(precision) << x;
      return os.str();
    };
    table.add_row({app.name, app.version, app.characteristic,
                   pct(profile.cpu_fraction), pct(profile.block_fraction),
                   num(profile.io_ops_per_second),
                   num(profile.messages_per_second),
                   num(profile.metric_seconds, 2)});
  }
  std::cout << table.render() << '\n'
            << "(measured on a Vanilla BM 4xLarge instance; cpu%/blocked% "
               "are fractions of summed task lifetimes)\n";
  std::cerr << "bench wall time: " << stopwatch.seconds() << " s\n";
  return 0;
}
