// Report rendering shared by the bench binaries.
//
// Every bench prints the same structure: the figure as an aligned table
// (mean ± 95% CI), a CSV block for machine extraction, an ASCII bar
// rendering of the shape, and the overhead-ratio table against
// bare-metal with the PTO/PSO classification.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/overhead.hpp"
#include "stats/series.hpp"

namespace pinsim::core {

struct ReportOptions {
  bool bars = true;
  bool csv = true;
  bool ratios = true;
  int precision = 2;
};

/// Run metadata recorded alongside machine-readable bench output.
struct BenchRunMeta {
  std::string artifact;     // e.g. "Figure 3"
  int repetitions = 0;      // effective repetitions per cell
  int jobs = 1;             // worker threads used for the sweep
  double wall_seconds = 0;  // bench wall-clock time
};

/// Render the full report for a measured figure.
void print_figure_report(std::ostream& out, const stats::Figure& figure,
                         const ReportOptions& options = {});

/// Render only the overhead-ratio table.
void print_ratio_table(std::ostream& out, const stats::Figure& figure,
                       int precision = 2);

/// A standard header naming the paper artifact being reproduced.
void print_header(std::ostream& out, const std::string& artifact,
                  const std::string& description);

/// Escape a string for embedding in a JSON document.
std::string json_escape(const std::string& text);

/// Machine-readable bench output: run metadata plus every figure's
/// series as {mean, half_width} points (null for omitted cells). The
/// bench binaries write this when invoked with `--json <path>`.
void write_bench_json(std::ostream& out, const BenchRunMeta& meta,
                      const std::vector<const stats::Figure*>& figures);

}  // namespace pinsim::core
