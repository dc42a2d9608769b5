// pinsim-lint pass 1/2: the cross-file symbol index and the
// reachability rule that runs over it.
//
// Pass 1 (`summarize_file`) extracts a per-file summary from the token
// stream: function/method definitions (with a scope walk over
// namespace/class braces, out-of-class `Ret Class::name(...)`
// definitions, constructors with member-init lists, and lambdas folded
// into their enclosing function), every call site inside each body,
// allocation-risk sites for the hot-path rule, `Type [*|&] var`
// declaration bindings and `.reserve()` sites. `scan_tree` summarizes
// the files in path-sorted order, so ids and output are deterministic.
//
// Pass 2 (`run_index_rules`) merges the summaries into a SymbolIndex
// (flat definition list + name multimap) and walks an approximate call
// graph. Edges are deliberately conservative: a call contributes an
// edge only when the callee name resolves to exactly ONE definition —
// via an explicit `Class::name` qualifier (a namespace qualifier such
// as `os::name` narrows to free functions), via the receiver's declared
// type (`LoadBalancer* lb; lb->admit(...)`), via same-class preference
// for unqualified calls inside a method, or via global uniqueness.
// Overload sets and virtual hooks with multiple definitions produce no
// edge (no false paths), which the rule compensates for with explicit
// `// pinsim-lint: hot` annotations on the entry points it polices.
//
// The rule:
//
//   hot-path        forward reachability from `// pinsim-lint: hot`
//                   functions; allocation / std::function /
//                   unreserved-push_back sites on any reached function
//                   are findings.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint.hpp"

namespace pinsim::lint {

/// One call site inside a function body (lambdas included).
struct CallSite {
  std::string name;
  std::string qualifier;  // "Kernel" for Kernel::tick(...), else ""
  std::string receiver;   // identifier before . or -> for member calls
  bool member = false;
  int line = 0;
};

/// A site the hot-path rule cares about.
struct RiskSite {
  enum Kind { kNew, kMakeUnique, kMakeShared, kPushBack, kStdFunction };
  Kind kind;
  std::string detail;  // container for kPushBack
  int line = 0;
};

struct FunctionDef {
  std::string name;
  std::string klass;  // enclosing class or `X::` qualifier; "" if free
  std::string file;
  int line = 0;  // line of the name token
  std::set<std::string> annotations;
  std::vector<CallSite> calls;
  std::vector<RiskSite> risks;
};

struct FileSummary {
  std::string path;
  std::vector<FunctionDef> functions;
  /// Names of the classes/structs/unions defined in the file.
  std::vector<std::string> classes;
  /// var -> declared type, from `Type [*|&|const] var` shapes.
  std::map<std::string, std::string> bindings;
  /// (enclosing class, container) pairs with a `.reserve(` site.
  std::set<std::pair<std::string, std::string>> reserved;
  /// The allow map, so pass-2 findings honor the same suppressions.
  std::map<int, std::set<std::string>> allows;
};

/// Summarize one file's contents as if it lived at `path`.
FileSummary summarize_file(std::string_view path, std::string_view contents);

/// The merged cross-file index. Files must be supplied in path-sorted
/// order (scan_tree guarantees this) so ids and rule output are
/// deterministic.
struct SymbolIndex {
  std::vector<FileSummary> files;
  std::vector<const FunctionDef*> functions;  // file order, then body order
  std::map<std::string, std::vector<int>> by_name;  // name -> function ids
  std::set<std::string> classes;  // every indexed class name
  std::set<std::pair<std::string, std::string>> reserved;
  std::map<std::string, int> file_id;  // path -> index into files

  static SymbolIndex build(std::vector<FileSummary> summaries);

  /// The unique definition a call site resolves to, or -1.
  int resolve(const CallSite& call, const std::string& from_file,
              const std::string& from_class) const;
};

/// Run the cross-file rule over the index, appending findings.
void run_index_rules(const Config& config, const SymbolIndex& index,
                     std::vector<Diagnostic>* out);

// ---------------------------------------------------------------------------
// Whole-tree scanning (shared by the CLI and the tests).
// ---------------------------------------------------------------------------

struct TreeScanResult {
  std::vector<std::string> files;  // analyzed files, path-sorted
  std::vector<Diagnostic> diags;
};

/// Collect repo-relative source paths under `rel` (file or directory),
/// skipping fixture corpora, build trees, and dot-directories.
bool collect_sources(const std::string& root, const std::string& rel,
                     std::vector<std::string>* out, std::string* error);

/// Analyze `paths` (repo-relative files or directories) under `root`
/// with every per-file pass, plus the cross-file pass over an index of
/// `config.index_dirs`. Returns false (with `error` set) when a path
/// cannot be read or walked.
bool scan_tree(const Config& config, const std::string& root,
               const std::vector<std::string>& paths, TreeScanResult* result,
               std::string* error);

}  // namespace pinsim::lint
