// Experiment runner: the measurement harness behind every figure.
//
// Runs a workload on a platform configuration for N repetitions (fresh
// host, fresh platform, fresh workload, per-repetition seed) and reports
// mean + 95% confidence interval, exactly the protocol of the paper
// (20 repetitions for FFmpeg/MPI/Cassandra, 6 for WordPress).
//
// Sweeps are embarrassingly parallel: every (cell, repetition) pair
// builds its own Host/platform/workload from its own seed, so
// measure_all() fans cells across a util::ThreadPool and still produces
// results bit-identical to the serial path — samples are gathered into
// each cell's Accumulator in deterministic (cell, repetition) order
// regardless of completion order.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stats/series.hpp"
#include "virt/factory.hpp"
#include "workload/workload.hpp"

namespace pinsim::core {

struct ExperimentConfig {
  int repetitions = 20;
  std::uint64_t base_seed = 42;
  hw::Topology full_host = hw::Topology::dell_r830();
  hw::CostModel costs;
};

/// Builds a fresh workload instance per repetition. Factories used with
/// measure_all(jobs > 1) are invoked concurrently from worker threads and
/// must not touch shared mutable state.
using WorkloadFactory =
    std::function<std::unique_ptr<workload::Workload>()>;

struct Measurement {
  virt::PlatformSpec spec;
  stats::Accumulator samples;  // metric_seconds per repetition

  stats::Interval interval() const {
    return stats::confidence_95(samples);
  }
};

/// One cell of a sweep: a platform spec plus the workload it runs.
/// `full_host` overrides the runner's host topology when set (Figure 7
/// runs the same container on hosts of different sizes).
struct SweepCell {
  virt::PlatformSpec spec;
  WorkloadFactory factory;
  std::optional<hw::Topology> full_host;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(ExperimentConfig config = {})
      : config_(std::move(config)) {}

  const ExperimentConfig& config() const { return config_; }

  /// One platform configuration, `repetitions` independent runs.
  Measurement measure(const virt::PlatformSpec& spec,
                      const WorkloadFactory& factory) const;

  /// A whole sweep, fanned across `jobs` worker threads, never more
  /// than the sweep has runs (jobs <= 1 runs inline). Returns one
  /// Measurement per cell, in cell order, with samples bit-identical to
  /// calling measure() per cell.
  std::vector<Measurement> measure_all(const std::vector<SweepCell>& cells,
                                       int jobs) const;

  /// Convenience: the same workload factory for every spec.
  std::vector<Measurement> measure_all(
      const std::vector<virt::PlatformSpec>& specs,
      const WorkloadFactory& factory, int jobs) const;

  /// One repetition (exposed for tests and custom sweeps).
  workload::RunResult run_once(const virt::PlatformSpec& spec,
                               const WorkloadFactory& factory,
                               std::uint64_t seed) const;

  /// One repetition on an explicit host topology (Figure 7 sweeps hosts).
  workload::RunResult run_once(const virt::PlatformSpec& spec,
                               const WorkloadFactory& factory,
                               std::uint64_t seed,
                               const hw::Topology& full_host) const;

  /// The seed measure()/measure_all() use for repetition `rep`.
  std::uint64_t seed_for(int rep) const {
    return config_.base_seed + 1000003ull * static_cast<std::uint64_t>(rep);
  }

 private:
  ExperimentConfig config_;
};

}  // namespace pinsim::core
