// The parallel sweep's contract: measure_all is bit-identical to the
// serial measure() path for the same seeds, at any job count.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <mutex>

#include "core/experiment.hpp"
#include "workload/ffmpeg.hpp"
#include "workload/wordpress.hpp"

namespace pinsim::core {
namespace {

WorkloadFactory tiny_ffmpeg() {
  return [] {
    workload::FfmpegConfig config;
    config.serial_seconds = 0.2;
    config.parallel_seconds = 1.6;
    return std::make_unique<workload::Ffmpeg>(config);
  };
}

std::vector<virt::PlatformSpec> all_series_specs(const char* instance) {
  return virt::paper_series(virt::instance_by_name(instance));
}

void expect_identical_to_serial(const ExperimentRunner& runner,
                                const std::vector<virt::PlatformSpec>& specs,
                                const WorkloadFactory& factory, int jobs) {
  const std::vector<Measurement> parallel =
      runner.measure_all(specs, factory, jobs);
  ASSERT_EQ(parallel.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Measurement serial = runner.measure(specs[i], factory);
    SCOPED_TRACE(specs[i].label() + " @ " + specs[i].instance.name +
                 " jobs=" + std::to_string(jobs));
    // Bit-identical, not approximately equal: the parallel path must
    // replay the exact serial seeds and accumulate in the same order.
    EXPECT_EQ(parallel[i].samples.count(), serial.samples.count());
    EXPECT_EQ(parallel[i].samples.mean(), serial.samples.mean());
    EXPECT_EQ(parallel[i].samples.variance(), serial.samples.variance());
    EXPECT_EQ(parallel[i].interval().mean, serial.interval().mean);
    EXPECT_EQ(parallel[i].interval().half_width,
              serial.interval().half_width);
  }
}

TEST(ExperimentParallelTest, SingleJobMatchesSerialOnEveryPaperSeries) {
  ExperimentConfig config;
  config.repetitions = 3;
  const ExperimentRunner runner(config);
  expect_identical_to_serial(runner, all_series_specs("Large"),
                             tiny_ffmpeg(), 1);
}

TEST(ExperimentParallelTest, FourJobsMatchSerialOnEveryPaperSeries) {
  ExperimentConfig config;
  config.repetitions = 3;
  const ExperimentRunner runner(config);
  expect_identical_to_serial(runner, all_series_specs("Large"),
                             tiny_ffmpeg(), 4);
}

TEST(ExperimentParallelTest, FourJobsMatchSerialOnLargerInstance) {
  ExperimentConfig config;
  config.repetitions = 2;
  const ExperimentRunner runner(config);
  expect_identical_to_serial(runner, all_series_specs("xLarge"),
                             tiny_ffmpeg(), 4);
}

TEST(ExperimentParallelTest, MoreJobsThanCellsIsFine) {
  ExperimentConfig config;
  config.repetitions = 2;
  const ExperimentRunner runner(config);
  const std::vector<virt::PlatformSpec> specs = {
      virt::PlatformSpec{virt::PlatformKind::BareMetal,
                         virt::CpuMode::Vanilla,
                         virt::instance_by_name("Large")}};
  expect_identical_to_serial(runner, specs, tiny_ffmpeg(), 16);
}

TEST(ExperimentParallelTest, HostOverrideCellsAreIndependent) {
  // Figure 7's pattern: the same spec on two different hosts must
  // produce different numbers, and each must match a direct run_once.
  ExperimentConfig config;
  config.repetitions = 2;
  const ExperimentRunner runner(config);
  const virt::PlatformSpec spec{virt::PlatformKind::Container,
                                virt::CpuMode::Vanilla,
                                virt::instance_by_name("xLarge")};
  const std::vector<SweepCell> cells = {
      SweepCell{spec, tiny_ffmpeg(), hw::Topology::small_host_16()},
      SweepCell{spec, tiny_ffmpeg(), hw::Topology::dell_r830()},
  };
  const auto results = runner.measure_all(cells, 4);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NE(results[0].samples.mean(), results[1].samples.mean());
  // Rep 0 of the small-host cell must be exactly a direct run_once with
  // the same seed and topology.
  const double direct_small =
      runner
          .run_once(spec, tiny_ffmpeg(), runner.seed_for(0),
                    hw::Topology::small_host_16())
          .metric_seconds;
  EXPECT_TRUE(direct_small == results[0].samples.min() ||
              direct_small == results[0].samples.max());
}

TEST(ExperimentParallelTest, PerCellFactoriesStayDistinct) {
  // Figure 8's pattern: same spec, different workload config per cell.
  ExperimentConfig config;
  config.repetitions = 2;
  const ExperimentRunner runner(config);
  const virt::PlatformSpec spec{virt::PlatformKind::Container,
                                virt::CpuMode::Vanilla,
                                virt::instance_by_name("xLarge")};
  auto ffmpeg_with = [](double serial_seconds) -> WorkloadFactory {
    return [serial_seconds] {
      workload::FfmpegConfig cfg;
      cfg.serial_seconds = serial_seconds;
      cfg.parallel_seconds = 1.0;
      return std::make_unique<workload::Ffmpeg>(cfg);
    };
  };
  const std::vector<SweepCell> cells = {
      SweepCell{spec, ffmpeg_with(0.1), std::nullopt},
      SweepCell{spec, ffmpeg_with(0.8), std::nullopt},
  };
  const auto results = runner.measure_all(cells, 4);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_LT(results[0].samples.mean(), results[1].samples.mean());
}

/// Threads of this process now.
long thread_count() {
  return static_cast<long>(
      std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                    std::filesystem::directory_iterator()));
}

TEST(ExperimentParallelTest, StartsNoMoreWorkersThanRuns) {
  // 8 jobs over 2 runs: the pool starts 2 workers beside the threads
  // already running (the test's own, and any a sanitizer runtime
  // keeps). Each factory call counts this process's threads.
  ExperimentConfig config;
  config.repetitions = 2;
  const ExperimentRunner runner(config);
  const std::vector<virt::PlatformSpec> specs = {
      virt::PlatformSpec{virt::PlatformKind::BareMetal,
                         virt::CpuMode::Vanilla,
                         virt::instance_by_name("Large")}};
  const long before = thread_count();
  std::mutex mutex;
  long most = 0;
  const WorkloadFactory counting = [&] {
    const long threads = thread_count();
    {
      std::lock_guard<std::mutex> lock(mutex);
      most = std::max(most, threads);
    }
    return tiny_ffmpeg()();
  };
  runner.measure_all(specs, counting, 8);
  EXPECT_GT(most, before);
  EXPECT_LE(most, before + 2);
}

TEST(ExperimentParallelTest, WorkerExceptionPropagates) {
  ExperimentConfig config;
  config.repetitions = 2;
  const ExperimentRunner runner(config);
  const std::vector<virt::PlatformSpec> specs = {
      virt::PlatformSpec{virt::PlatformKind::BareMetal,
                         virt::CpuMode::Vanilla,
                         virt::instance_by_name("Large")}};
  const WorkloadFactory broken = []() -> std::unique_ptr<workload::Workload> {
    return nullptr;  // trips the PINSIM_CHECK inside run_once
  };
  EXPECT_THROW(runner.measure_all(specs, broken, 4), InvariantViolation);
}

}  // namespace
}  // namespace pinsim::core
