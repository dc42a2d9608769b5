// pinsim-lint: an in-tree determinism & index-safety analyzer.
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
// Rule groups (each suppressible with `// pinsim-lint: allow(<rule>)`
// on the offending line, or on a whole-line comment directly above it):
//
//   determinism   wall clocks, time()/rand()/getenv()/random_device,
//                 and iteration over std::unordered_{map,set}, inside
//                 the directories that feed simulated behaviour.
//   ordering      pointer-keyed std::map/std::set and std::less<T*>
//                 in those same directories (pointer order is
//                 allocation order — nondeterministic across runs).
//   index-safety  raw subscript use of the known back-pointer fields
//                 (rq_index, park_index, the engine's slot_of_ array)
//                 outside the files that own the invariant.
//   predicate-purity
//                 run_until() predicates that read g_-prefixed mutable
//                 globals — a stop condition on shared mutable state is
//                 evaluated at window boundaries under the sharded
//                 engine and must depend only on simulation state.
//   float-accumulation
//                 float/double accumulation (`sum += x`, `sum = sum + x`)
//                 inside a range-for over an unordered container —
//                 float addition is not associative, so the reduction's
//                 value depends on bucket order and varies across runs.
//   hygiene       #pragma once in every header, no `using namespace`
//                 at namespace scope in headers, no std::cout/printf
//                 outside bench/, examples/ and tools/.
//
// On top of the per-file passes, a second pass runs over a cross-file
// symbol index (function definitions, an approximate call graph, and
// per-symbol annotations read from `// pinsim-lint: hot` /
// `shard-owner(0)` comments — see index.hpp):
//
//   shard-affinity
//                 code reachable from a cross-shard mailbox post()
//                 callback must not touch shard-0-owned symbols except
//                 by posting back through the mailbox.
//   hot-path      no allocation (`new`, make_unique/make_shared,
//                 push_back into a never-reserved container),
//                 or std::function construction reachable from a
//                 function annotated hot.
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
  /// Directories whose code feeds simulated behaviour: determinism and
  /// ordering rules apply here.
  std::vector<std::string> simulated_dirs;

  /// Paths where std::cout/printf are legitimate (CLIs).
  std::vector<std::string> output_allowed;

  /// A back-pointer index with the files that own its invariant. Use of
  /// the name in a subscript anywhere else is an index-safety finding.
  struct GuardedIndex {
    std::string name;
    std::vector<std::string> owners;
  };
  std::vector<GuardedIndex> guarded_indexes;

  /// Directory prefixes the predicate-purity rule applies to: inside a
  /// run_until(...) call, identifiers with the g_ mutable-global prefix
  /// are findings (the predicate must be a pure function of simulation
  /// state, or sharded runs stop nondeterministically).
  std::vector<std::string> predicate_purity_dirs;

  /// Directory prefixes the float-accumulation rule applies to: a
  /// float/double variable accumulated inside a range-for over an
  /// unordered container is a finding (non-associative adds in
  /// nondeterministic bucket order make the reduction vary across
  /// runs even when every element is identical).
  std::vector<std::string> float_accumulation_dirs;

  // --- cross-file (pass 2) policy -----------------------------------------

  /// Directories whose files feed the cross-file symbol index. Every
  /// file under these prefixes is summarized even when only a subset
  /// of the tree is being analyzed, so reachability sees whole call
  /// chains.
  std::vector<std::string> index_dirs;

  /// Directory prefixes where hot-path findings are reported (the
  /// whole index is still traversed for reachability).
  std::vector<std::string> hot_path_dirs;

  /// Directory prefixes whose member `post(...)` lambdas are treated
  /// as cross-shard mailbox callbacks (shard-affinity roots).
  std::vector<std::string> shard_affinity_dirs;
};

/// The policy shipped with the repo (matches the layout under src/).
Config default_config();

/// True when `path` matches `pattern` under Config's prefix rules.
bool path_matches(std::string_view path, std::string_view pattern);

/// Analyze one file's contents as if it lived at `path` (repo-relative;
/// decides rule applicability). Appends findings to `out`.
void analyze_file(const Config& config, std::string_view path,
                  std::string_view contents, std::vector<Diagnostic>* out);

/// Analyze a file on disk (path used both for IO and rule policy after
/// stripping `root/`). Returns false when the file cannot be read.
bool analyze_path(const Config& config, const std::string& root,
                  const std::string& rel_path, std::vector<Diagnostic>* out);

}  // namespace pinsim::lint
