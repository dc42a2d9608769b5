// End-to-end determinism of the Figure 7 (CHR) bench: the rendered
// report must be byte-identical between --jobs 1 and --jobs 4 at a
// fixed seed, and must match a golden hash. The golden pins the whole
// scheduler pipeline — wakeup placement candidate sets, RNG draw order,
// runqueue tie-breaks, throttle/unthrottle order — so any refactor that
// perturbs the simulated behaviour (not just its speed) fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "hw/topology.hpp"
#include "stats/series.hpp"
#include "virt/instance_type.hpp"
#include "virt/platform.hpp"
#include "workload/ffmpeg.hpp"

namespace pinsim::core {
namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// The fig7_chr cells (reps overridden to 2 to keep the test fast),
/// rendered exactly like the bench binary renders them.
std::string render_fig7(int jobs) {
  ExperimentConfig config;
  config.repetitions = 2;
  const ExperimentRunner runner(config);
  const hw::Topology small = hw::Topology::small_host_16();
  const hw::Topology big = hw::Topology::dell_r830();
  const WorkloadFactory ffmpeg = [] {
    return std::make_unique<workload::Ffmpeg>();
  };
  const auto& instance = virt::instance_by_name("4xLarge");
  auto cell = [&](virt::PlatformKind kind, virt::CpuMode mode,
                  const hw::Topology& host) {
    return SweepCell{virt::PlatformSpec{kind, mode, instance}, ffmpeg, host};
  };
  const std::vector<SweepCell> cells = {
      cell(virt::PlatformKind::Container, virt::CpuMode::Vanilla, small),
      cell(virt::PlatformKind::Container, virt::CpuMode::Pinned, small),
      cell(virt::PlatformKind::BareMetal, virt::CpuMode::Vanilla, small),
      cell(virt::PlatformKind::Container, virt::CpuMode::Vanilla, big),
      cell(virt::PlatformKind::Container, virt::CpuMode::Pinned, big),
  };
  const std::vector<Measurement> results = runner.measure_all(cells, jobs);

  stats::Figure figure("Figure 7 — FFmpeg on a 4xLarge container, by host",
                       {"16 cores (CHR=1)", "112 cores (CHR=0.14)"});
  figure.add_series("Vanilla CN");
  figure.add_series("Pinned CN");
  figure.add_series("Vanilla BM");
  figure.mutable_series("Vanilla CN")->set(0, results[0].interval());
  figure.mutable_series("Pinned CN")->set(0, results[1].interval());
  figure.mutable_series("Vanilla BM")->set(0, results[2].interval());
  figure.mutable_series("Vanilla CN")->set(1, results[3].interval());
  figure.mutable_series("Pinned CN")->set(1, results[4].interval());

  ReportOptions report_options;
  report_options.ratios = false;
  std::ostringstream out;
  print_figure_report(out, figure, report_options);
  return out.str();
}

// Golden FNV-1a hash of the jobs=1 report. Captured from the verified
// baseline (outputs byte-identical to the pre-overhaul scheduler at the
// same seeds). An intentional behaviour change (new cost model, RNG
// change, ...) must re-capture: run with --gtest_also_run_disabled_tests
// or read the hash from the failure message.
constexpr std::uint64_t kGoldenHash = 0x87954fb3e4d1cf54ull;

TEST(Fig7DeterminismTest, ParallelSweepMatchesSerialByteForByte) {
  const std::string serial = render_fig7(1);
  const std::string parallel = render_fig7(4);
  EXPECT_EQ(serial, parallel);
}

TEST(Fig7DeterminismTest, ReportMatchesGoldenHash) {
  const std::string serial = render_fig7(1);
  EXPECT_EQ(fnv1a(serial), kGoldenHash)
      << "fig7 report drifted; actual hash 0x" << std::hex << fnv1a(serial)
      << "\nreport:\n"
      << serial;
}

}  // namespace
}  // namespace pinsim::core
