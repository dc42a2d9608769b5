// Shared scaffolding for the figure/table bench binaries.
//
// Each bench reproduces one paper artifact and prints mean ± 95% CI
// tables, ASCII bars, overhead ratios, and CSV. Repetition counts default
// to the paper's protocol; set PINSIM_REPS to override (e.g. PINSIM_REPS=3
// for a quick pass) — the output notes any override.
//
// Common CLI (parse with bench::parse_cli):
//   --jobs N    fan the sweep across N worker threads (default: 1, or
//               PINSIM_JOBS). Results are bit-identical to --jobs 1.
//   --reps N    override the paper's repetition count (same as PINSIM_REPS)
//   --json P    also write machine-readable results + timing to file P
//   --stats     print aggregated sim::Engine counters (events fired and
//               scheduled, reschedules, peak_heap: the slab high-water
//               mark) after the run
#pragma once

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "core/experiment.hpp"
#include "core/figure.hpp"
#include "core/report.hpp"
#include "sim/engine.hpp"
#include "stats/text_table.hpp"

namespace pinsim::bench {

struct BenchOptions {
  int jobs = 1;
  int reps_override = 0;  // 0 = keep the paper protocol / PINSIM_REPS
  std::string json_path;  // empty = no JSON output
  bool engine_stats = false;  // print aggregated engine counters at exit
};

inline constexpr const char* kUsageFlags =
    "[--jobs N] [--reps N] [--json PATH] [--stats]";

/// Report a CLI or environment error with the usage line and exit 2.
[[noreturn]] inline void usage_error(const std::string& what,
                                     const char* program = "<bench>") {
  std::cerr << what << "\nusage: " << program << ' ' << kUsageFlags
            << "\n  (PINSIM_JOBS and PINSIM_REPS take the same N >= 1)\n";
  std::exit(2);
}

/// Parse all of `text` as a base-10 integer >= 1, or exit 2 naming
/// `what`: "4x", "abc", "" and "-1" are errors, never a silent 4 or 0.
inline int parse_count(const char* what, const char* text,
                       const char* program = "<bench>") {
  const char* end = text + std::strlen(text);
  int value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < 1) {
    usage_error(std::string(what) + " must be an integer >= 1, got '" +
                    text + "'",
                program);
  }
  return value;
}

/// `name` from the environment via parse_count; unset or empty means
/// `fallback`.
inline int env_int_or(const char* name, int fallback,
                      const char* program = "<bench>") {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return parse_count(name, env, program);
}

/// Parse the common bench flags; exits with a usage message on errors so
/// every bench binary behaves the same.
inline BenchOptions parse_cli(int argc, char** argv) {
  const char* program = argv[0];
  BenchOptions options;
  options.jobs = env_int_or("PINSIM_JOBS", 1, program);
  // Validated here so a bad value fails before any work starts;
  // make_runner reads it again.
  env_int_or("PINSIM_REPS", 1, program);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        usage_error(std::string("missing value for ") + flag, program);
      }
      return argv[++i];
    };
    if (arg == "--jobs" || arg == "-j") {
      options.jobs = parse_count("--jobs", value("--jobs"), program);
    } else if (arg == "--reps") {
      options.reps_override = parse_count("--reps", value("--reps"), program);
    } else if (arg == "--json") {
      options.json_path = value("--json");
    } else if (arg == "--stats") {
      options.engine_stats = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: " << program << ' ' << kUsageFlags << "\n";
      std::exit(0);
    } else {
      usage_error("unknown argument: " + arg, program);
    }
  }
  return options;
}

inline int repetitions_or(int paper_default) {
  return env_int_or("PINSIM_REPS", paper_default);
}

inline core::ExperimentRunner make_runner(int paper_reps,
                                          const BenchOptions& options = {}) {
  core::ExperimentConfig config;
  config.repetitions = options.reps_override > 0 ? options.reps_override
                                                 : repetitions_or(paper_reps);
  if (config.repetitions != paper_reps) {
    std::cout << "[note] repetition override: " << config.repetitions
              << " repetitions (paper protocol: " << paper_reps << ")\n";
  }
  if (options.jobs > 1) {
    std::cerr << "[note] sweeping with up to " << options.jobs
              << " worker threads (results identical to --jobs 1)\n";
  }
  return core::ExperimentRunner(config);
}

/// Progress dots so long sweeps show life on the console.
inline void progress_point(const virt::PlatformSpec& spec,
                           const stats::Interval& interval) {
  std::cout << "  [" << spec.instance.name << "] " << spec.label() << ": "
            << stats::format_interval(interval) << " s\n"
            << std::flush;
}

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Write the machine-readable report when --json was given.
inline void maybe_write_json(const BenchOptions& options,
                             const std::string& artifact, int repetitions,
                             double wall_seconds,
                             const std::vector<const stats::Figure*>& figures) {
  if (options.json_path.empty()) return;
  std::ofstream out(options.json_path);
  if (!out) {
    std::cerr << "cannot open " << options.json_path << " for writing\n";
    std::exit(1);
  }
  core::BenchRunMeta meta;
  meta.artifact = artifact;
  meta.repetitions = repetitions;
  meta.jobs = options.jobs;
  meta.wall_seconds = wall_seconds;
  core::write_bench_json(out, meta, figures);
  std::cout << "json written to " << options.json_path << "\n";
}

/// Print the process-wide engine counters when --stats was given. Call
/// last in main — the totals fold in as each simulation's Engine is
/// destroyed, and a sweep builds one engine per (cell, repetition).
inline void maybe_print_engine_stats(const BenchOptions& options) {
  if (!options.engine_stats) return;
  const sim::EngineStats stats = sim::aggregate_engine_stats();
  std::cout << "engine stats: fired=" << stats.fired
            << " scheduled=" << stats.scheduled
            << " reschedules=" << stats.reschedules
            << " peak_heap=" << stats.peak_heap << "\n";
}

}  // namespace pinsim::bench
