#include "core/experiment.hpp"

#include <algorithm>
#include <future>
#include <utility>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace pinsim::core {

workload::RunResult ExperimentRunner::run_once(
    const virt::PlatformSpec& spec, const WorkloadFactory& factory,
    std::uint64_t seed) const {
  return run_once(spec, factory, seed, config_.full_host);
}

workload::RunResult ExperimentRunner::run_once(
    const virt::PlatformSpec& spec, const WorkloadFactory& factory,
    std::uint64_t seed, const hw::Topology& full_host) const {
  auto workload = factory();
  PINSIM_CHECK(workload != nullptr);
  virt::Host host(virt::host_topology_for(spec, full_host), config_.costs,
                  seed);
  auto platform = virt::make_platform(host, spec);
  return workload->run(*platform, Rng(seed ^ 0x517cc1b727220a95ull));
}

Measurement ExperimentRunner::measure(const virt::PlatformSpec& spec,
                                      const WorkloadFactory& factory) const {
  return measure_all({SweepCell{spec, factory, std::nullopt}}, 1).front();
}

std::vector<Measurement> ExperimentRunner::measure_all(
    const std::vector<SweepCell>& cells, int jobs) const {
  PINSIM_CHECK(config_.repetitions >= 1);
  const int reps = config_.repetitions;
  const std::size_t cell_count = cells.size();

  // Samples indexed [cell][rep]; each worker writes its own slot, so the
  // only synchronization needed is the futures' completion.
  std::vector<std::vector<double>> samples(
      cell_count, std::vector<double>(static_cast<std::size_t>(reps), 0.0));

  if (jobs <= 1) {
    for (std::size_t c = 0; c < cell_count; ++c) {
      for (int rep = 0; rep < reps; ++rep) {
        samples[c][static_cast<std::size_t>(rep)] =
            run_once(cells[c].spec, cells[c].factory, seed_for(rep),
                     cells[c].full_host.value_or(config_.full_host))
                .metric_seconds;
      }
    }
  } else {
    // No more workers than runs: a surplus worker would only idle.
    const int runs = static_cast<int>(cell_count) * reps;
    util::ThreadPool pool(std::min(jobs, runs));
    std::vector<std::future<double>> futures;
    futures.reserve(cell_count * static_cast<std::size_t>(reps));
    for (std::size_t c = 0; c < cell_count; ++c) {
      const SweepCell& cell = cells[c];
      const hw::Topology full_host =
          cell.full_host.value_or(config_.full_host);
      for (int rep = 0; rep < reps; ++rep) {
        futures.push_back(pool.submit([this, &cell, full_host, rep] {
          return run_once(cell.spec, cell.factory, seed_for(rep), full_host)
              .metric_seconds;
        }));
      }
    }
    std::size_t next = 0;
    for (std::size_t c = 0; c < cell_count; ++c) {
      for (int rep = 0; rep < reps; ++rep) {
        samples[c][static_cast<std::size_t>(rep)] = futures[next++].get();
      }
    }
  }

  // Accumulate in (cell, rep) order, whatever order the workers finished
  // in, so means/CIs are bit-identical to the serial path.
  std::vector<Measurement> measurements(cell_count);
  for (std::size_t c = 0; c < cell_count; ++c) {
    measurements[c].spec = cells[c].spec;
    for (int rep = 0; rep < reps; ++rep) {
      measurements[c].samples.add(samples[c][static_cast<std::size_t>(rep)]);
    }
  }
  return measurements;
}

std::vector<Measurement> ExperimentRunner::measure_all(
    const std::vector<virt::PlatformSpec>& specs,
    const WorkloadFactory& factory, int jobs) const {
  std::vector<SweepCell> cells;
  cells.reserve(specs.size());
  for (const virt::PlatformSpec& spec : specs) {
    cells.push_back(SweepCell{spec, factory, std::nullopt});
  }
  return measure_all(cells, jobs);
}

}  // namespace pinsim::core
