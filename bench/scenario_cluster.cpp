// Cluster scenario: 10M daily users across a 50-host fleet — pinning,
// CHR sizing and autoscaling at the tail.
//
// The paper benchmarks one platform on one host with closed request
// bursts; this scenario composes those calibrated service recipes into
// the system the paper's §VI best practices are written for: a fleet of
// hosts behind a front end, open-loop traffic with a diurnal (WordPress)
// or bursty (Cassandra) rate profile, and tail-latency SLOs. Three
// operating points per fleet:
//
//   vanilla     the default deployment (vanilla containers,
//               round-robin routing), every host always on;
//   pinned      the paper's headline fix (pinned containers,
//               least-outstanding routing), every host always on;
//   chr-scaled  the §VI controller: instances sized+pinned by the CHR
//               advisor, least-outstanding routing, watermark
//               autoscaling that pays a provisioning delay per
//               scale-out. It differs from `pinned` only by sizing and
//               autoscaling: every host runs the same spec, so routing
//               by CHR could not tell the hosts apart.
//
// The WordPress day is compressed to 60 simulated seconds at the mean
// rate of 10M requests/day (116/s); Cassandra sees flash-crowd bursts.
// Output is derived exclusively from per-request latency records, so
// stdout is byte-identical for any --jobs value (wall time and
// parallelism notes go to stderr). Each fleet runs serially
// (shards = threads = 1): at 50 hosts the threaded round loop is
// slower than one engine.
#include <algorithm>
#include <future>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "cluster/fleet.hpp"
#include "stats/accumulator.hpp"
#include "stats/confidence.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace pinsim;

struct Cell {
  std::string name;
  cluster::FleetConfig config;
};

cluster::FleetConfig wordpress_base() {
  cluster::FleetConfig config;
  config.hosts = 50;
  config.app = workload::AppClass::IoWeb;
  config.arrivals.kind = cluster::ArrivalKind::Diurnal;
  // 10M daily users at ~20 page views each; the peak hour runs the
  // pinned fleet at ~65% utilization, where queueing shows in the tail.
  config.arrivals.rate_per_second = 2320.0;
  config.arrivals.diurnal_amplitude = 0.8;
  config.arrivals.diurnal_period_seconds = 30.0;  // one compressed day
  config.traffic_seconds = 30.0;
  config.drain_seconds = 120.0;
  // Just above the pinned fleet's p99.9, so misses stay in the
  // 0.01%–1% band where the cells differ.
  config.slo.target_seconds = 0.35;
  return config;
}

cluster::FleetConfig cassandra_base() {
  cluster::FleetConfig config;
  config.hosts = 10;
  config.app = workload::AppClass::IoNoSql;
  config.cassandra.server_threads = 8;
  config.arrivals.kind = cluster::ArrivalKind::Burst;
  config.arrivals.rate_per_second = 200.0;
  config.arrivals.burst_multiplier = 4.0;
  // Bursts outlast the provisioning delay, so reactive scaling can win.
  config.arrivals.burst_seconds = 5.0;
  config.arrivals.quiet_seconds = 10.0;
  config.traffic_seconds = 30.0;
  config.drain_seconds = 120.0;
  config.slo.target_seconds = 0.25;  // ops are far faster than web pages
  return config;
}

void make_cells(const cluster::FleetConfig& base, int min_instances,
                int step, std::vector<Cell>& cells) {
  Cell vanilla{"vanilla", base};
  vanilla.config.spec.mode = virt::CpuMode::Vanilla;
  vanilla.config.balancer = cluster::BalancerPolicy::RoundRobin;
  cells.push_back(std::move(vanilla));

  Cell pinned{"pinned", base};
  pinned.config.spec.mode = virt::CpuMode::Pinned;
  pinned.config.balancer = cluster::BalancerPolicy::LeastOutstanding;
  cells.push_back(std::move(pinned));

  Cell scaled{"chr-scaled", base};
  scaled.config.pinning = cluster::PinningPolicy::ChrAdvisor;
  scaled.config.balancer = cluster::BalancerPolicy::LeastOutstanding;
  scaled.config.autoscale = true;
  scaled.config.autoscaler.min_instances = min_instances;
  // Outstanding includes requests parked in backend waits, so the
  // watermarks are per-instance concurrency targets, not queue depths.
  scaled.config.autoscaler.high_watermark = 8.0;
  scaled.config.autoscaler.low_watermark = 4.0;
  scaled.config.autoscaler.step = step;
  scaled.config.autoscaler.cooldown = sec(1);
  scaled.config.autoscaler.provisioning_delay = sec(1);
  cells.push_back(std::move(scaled));
}

std::string join(const std::vector<std::int64_t>& values) {
  std::ostringstream os;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ',';
    os << values[i];
  }
  return os.str();
}

/// Measure every (cell, rep) of one fleet figure, fanning across the
/// pool; results are gathered in index order, so the figure and the
/// per-cell counter lines never depend on completion order.
stats::Figure measure(const std::string& title, const std::vector<Cell>& cells,
                      int reps, util::ThreadPool& pool) {
  std::vector<std::vector<std::future<cluster::ClusterResult>>> futures;
  futures.resize(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (int rep = 0; rep < reps; ++rep) {
      cluster::FleetConfig config = cells[c].config;
      config.base_seed = 42 + 1000003ull * static_cast<std::uint64_t>(rep);
      futures[c].push_back(
          pool.submit([config] { return cluster::run_cluster(config); }));
    }
  }

  stats::Figure figure(title, {"p50 (s)", "p99 (s)", "p99.9 (s)",
                               "SLO miss frac"});
  for (std::size_t c = 0; c < cells.size(); ++c) {
    stats::Accumulator p50;
    stats::Accumulator p99;
    stats::Accumulator p999;
    stats::Accumulator miss;
    std::vector<std::int64_t> dispatched;
    std::vector<std::int64_t> scale_ups;
    std::vector<std::int64_t> peak_active;
    for (int rep = 0; rep < reps; ++rep) {
      const cluster::ClusterResult result =
          futures[c][static_cast<std::size_t>(rep)].get();
      p50.add(result.slo.p50_seconds);
      p99.add(result.slo.p99_seconds);
      p999.add(result.slo.p999_seconds);
      miss.add(result.slo.violation_fraction);
      dispatched.push_back(result.dispatched);
      scale_ups.push_back(result.scale_ups);
      peak_active.push_back(result.peak_active);
    }
    stats::Series& series = figure.add_series(cells[c].name);
    series.set(0, stats::confidence_95(p50));
    series.set(1, stats::confidence_95(p99));
    series.set(2, stats::confidence_95(p999));
    series.set(3, stats::confidence_95(miss));
    std::cout << "  [" << cells[c].name << "] requests=" << join(dispatched)
              << " scale_ups=" << join(scale_ups)
              << " peak_active=" << join(peak_active) << "\n";
  }
  return figure;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pinsim;
  const bench::BenchOptions options = bench::parse_cli(argc, argv);
  bench::Stopwatch stopwatch;
  core::print_header(std::cout, "Cluster",
                     "50-host serving fleet: open-loop traffic, tail-latency "
                     "SLOs, CHR-aware autoscaling");

  const int reps = options.reps_override > 0 ? options.reps_override
                                             : bench::repetitions_or(3);
  std::vector<Cell> wordpress_cells;
  make_cells(wordpress_base(), 10, 4, wordpress_cells);
  std::vector<Cell> cassandra_cells;
  make_cells(cassandra_base(), 4, 3, cassandra_cells);

  // measure() gathers one fleet's runs before the next fleet submits
  // its own, so no more than one fleet's runs are ever in flight.
  const std::size_t cells =
      std::max(wordpress_cells.size(), cassandra_cells.size());
  util::ThreadPool pool(std::min(options.jobs, static_cast<int>(cells) * reps));
  if (pool.size() > 1) {
    std::cerr << "[note] sweeping with " << pool.size()
              << " worker threads (results identical to --jobs 1)\n";
  }

  std::cout << "\nWordPress fleet (50 hosts, compressed diurnal day, "
            << reps << " reps):\n";
  const stats::Figure wordpress =
      measure("Cluster — WordPress fleet (50 hosts, 100M req/day, SLO 0.35 s)",
              wordpress_cells, reps, pool);

  std::cout << "\nCassandra fleet (10 hosts, flash-crowd bursts, " << reps
            << " reps):\n";
  const stats::Figure cassandra =
      measure("Cluster — Cassandra fleet (10 hosts, bursts, SLO 0.25 s)",
              cassandra_cells, reps, pool);

  core::ReportOptions report_options;
  report_options.precision = 4;  // tail fractions need the digits
  report_options.ratios = false;  // no bare-metal baseline in this sweep
  std::cout << '\n';
  core::print_figure_report(std::cout, wordpress, report_options);
  std::cout << '\n';
  core::print_figure_report(std::cout, cassandra, report_options);

  const double wall = stopwatch.seconds();
  std::cerr << "bench wall time: " << wall << " s\n";
  bench::maybe_write_json(options, "Cluster", reps, wall,
                          {&wordpress, &cassandra});
  bench::maybe_print_engine_stats(options);
  return 0;
}
