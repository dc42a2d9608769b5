// pinsim-lint: an in-tree determinism analyzer.
//
// Every result in this reproduction rests on bit-identical replay: the
// figure benches are byte-compared at fixed seeds across PRs, so a
// single wall-clock read or an iteration over an unordered container
// inside the simulated world silently invalidates every golden hash.
// pinsim-lint turns those project invariants into machine-checkable
// rules: a small lexer strips comments and string literals, then rule
// passes walk the token stream and report (rule, file, line)
// diagnostics. No external dependencies — the analyzer builds with the
// same toolchain as the simulator and runs as a tier-1 ctest.
//
// Each rule is kept only while lint is the one check that catches a
// realistic mutant of src/ (the mutant table is in README.md). Rule
// groups (each suppressible with `// pinsim-lint: allow(<rule>)` on
// the offending line, or on a whole-line comment directly above it):
//
//   determinism   wall clocks, time()/rand()/getenv()/random_device
//                 inside the directories that feed simulated
//                 behaviour, and iteration over std::unordered_{map,
//                 set} anywhere in src/, bench/ and examples/ (bucket
//                 order varies across runs; a float reduction in that
//                 order varies even over identical elements).
//   ordering      pointer-keyed std::map/std::set and std::less<T*>
//                 in the simulated directories (pointer order is
//                 allocation order — nondeterministic across runs).
//   hygiene       #pragma once in every header, no `using namespace`
//                 at namespace scope in headers, no std::cout/printf
//                 outside bench/, examples/ and tools/.
//
// Allocation on the per-event paths is not a lint rule: the
// steady-state allocation test (tests/alloc/) counts it on real runs.
//
// Which rules apply to a file is decided from its repo-relative path by
// a Config (see default_config()), so the policy lives in one place and
// tests can run fixture files "as if" they sat in src/os.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pinsim::lint {

/// One finding. `rule` is the group name used in allow() suppressions;
/// `line` is 1-based in the analyzed file.
struct Diagnostic {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
};

/// Per-directory rule policy, keyed on repo-relative paths (forward
/// slashes, no leading "./"). Prefix entries ending in '/' match whole
/// directories; other entries match exact files.
struct Config {
  /// Directories whose code feeds simulated behaviour: the host-read
  /// and ordering checks apply here.
  std::vector<std::string> simulated_dirs;

  /// Directories where iterating an unordered container is a
  /// determinism finding (a superset of simulated_dirs: results and
  /// reductions computed outside the simulated world reach the golden
  /// bytes too).
  std::vector<std::string> unordered_iteration_dirs;

  /// Paths where std::cout/printf are legitimate (CLIs).
  std::vector<std::string> output_allowed;
};

/// The policy shipped with the repo (matches the layout under src/).
Config default_config();

/// True when `path` matches `pattern` under Config's prefix rules.
bool path_matches(std::string_view path, std::string_view pattern);

/// Analyze one file's contents as if it lived at `path` (repo-relative;
/// decides rule applicability). Appends findings to `out`.
void analyze_file(const Config& config, std::string_view path,
                  std::string_view contents, std::vector<Diagnostic>* out);

struct TreeScanResult {
  std::vector<std::string> files;  // analyzed files, path-sorted
  std::vector<Diagnostic> diags;
};

/// Analyze every source file under `paths` (repo-relative files or
/// directories; fixture corpora, build trees and dot-directories are
/// skipped) below `root`, once each, in path order. Returns false, with
/// `*error` set, when a path cannot be read or walked.
bool scan_tree(const Config& config, const std::string& root,
               const std::vector<std::string>& paths, TreeScanResult* result,
               std::string* error);

}  // namespace pinsim::lint
