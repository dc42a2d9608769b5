// Tests for pinsim-lint pass 1/2: the per-file summarizer (function /
// class / call / risk / mailbox extraction), the merged SymbolIndex
// and its conservative call resolution, the three reachability rule
// groups (exact (rule, line) fixture assertions, triggering and
// clean), and the serial-vs-parallel whole-tree scan equivalence.
#include "index.hpp"

#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lexer.hpp"

namespace pinsim::lint {
namespace {

#ifndef PINSIM_LINT_FIXTURES
#error "PINSIM_LINT_FIXTURES must point at tools/lint/fixtures"
#endif
#ifndef PINSIM_LINT_REPO_ROOT
#error "PINSIM_LINT_REPO_ROOT must point at the repo root"
#endif

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(PINSIM_LINT_FIXTURES) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

using RuleLine = std::pair<std::string, int>;  // (rule, 1-based line)

/// Collect the `// expect: rule [rule...]` markers from fixture text.
std::multiset<RuleLine> markers(const std::string& contents) {
  std::multiset<RuleLine> expected;
  std::istringstream lines(contents);
  std::string text;
  int line = 0;
  while (std::getline(lines, text)) {
    ++line;
    const std::size_t at = text.find("// expect:");
    if (at == std::string::npos) continue;
    std::istringstream rules(
        text.substr(at + std::string("// expect:").size()));
    std::string rule;
    while (rules >> rule) expected.insert({rule, line});
  }
  return expected;
}

std::string print(const std::multiset<RuleLine>& set) {
  std::ostringstream out;
  for (const auto& [rule, line] : set) out << rule << "@" << line << " ";
  return out.str();
}

/// Run ONLY the cross-file pass over a fixture pretending to live at
/// `pretend_path` (rule applicability is path-driven).
std::multiset<RuleLine> analyze_indexed(const std::string& fixture,
                                        const std::string& pretend_path) {
  const std::string contents = read_fixture(fixture);
  std::vector<FileSummary> summaries;
  summaries.push_back(summarize_file(pretend_path, contents));
  const SymbolIndex index = SymbolIndex::build(std::move(summaries));
  std::vector<Diagnostic> diags;
  run_index_rules(default_config(), index, &diags);
  std::multiset<RuleLine> got;
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.file, pretend_path);
    got.insert({d.rule, d.line});
  }
  return got;
}

void expect_index_markers(const std::string& fixture,
                          const std::string& pretend_path) {
  const std::multiset<RuleLine> expected = markers(read_fixture(fixture));
  ASSERT_FALSE(expected.empty()) << fixture << " has no expect markers";
  const std::multiset<RuleLine> got = analyze_indexed(fixture, pretend_path);
  EXPECT_EQ(got, expected) << fixture << " as " << pretend_path
                           << "\n  expected: " << print(expected)
                           << "\n  got:      " << print(got);
}

void expect_index_clean(const std::string& fixture,
                        const std::string& pretend_path) {
  const std::multiset<RuleLine> got = analyze_indexed(fixture, pretend_path);
  EXPECT_TRUE(got.empty()) << fixture << " as " << pretend_path
                           << "\n  got: " << print(got);
}

FileSummary summarize(const std::string& source,
                      const std::string& path = "src/a.cpp") {
  return summarize_file(path, source);
}

const FunctionDef* find_fn(const FileSummary& summary,
                           const std::string& name,
                           const std::string& klass = "") {
  for (const FunctionDef& fn : summary.functions) {
    if (fn.name == name && (klass.empty() || fn.klass == klass)) return &fn;
  }
  return nullptr;
}

bool calls_name(const FunctionDef& fn, const std::string& name) {
  for (const CallSite& call : fn.calls) {
    if (call.name == name) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Summarizer: definitions, annotations, bindings, reserves.
// ---------------------------------------------------------------------------

TEST(IndexSummary, ExtractsDefinitionShapes) {
  const FileSummary s = summarize(R"(
int free_fn(int x) { return x; }
struct Queue {
  Queue() : size_(0) { free_fn(1); }
  int pop() { return 0; }
  int helper();        // declaration: not a definition
  void gone() = delete;
  int size_;
};
int Queue::helper() { return pop(); }
)");
  ASSERT_NE(find_fn(s, "free_fn"), nullptr);
  EXPECT_EQ(find_fn(s, "free_fn")->klass, "");
  ASSERT_NE(find_fn(s, "Queue", "Queue"), nullptr);  // constructor
  ASSERT_NE(find_fn(s, "pop", "Queue"), nullptr);
  ASSERT_NE(find_fn(s, "helper", "Queue"), nullptr);  // out-of-class def
  EXPECT_EQ(find_fn(s, "helper", "Queue")->file, "src/a.cpp");
  EXPECT_EQ(find_fn(s, "gone", "Queue"), nullptr);
  // The ctor records the call made from its body; the init list itself
  // contributes no definition.
  EXPECT_TRUE(calls_name(*find_fn(s, "Queue", "Queue"), "free_fn"));
}

TEST(IndexSummary, AnnotationsAttachToDefinitions) {
  const FileSummary s = summarize(R"(
// pinsim-lint: hot
void spin() {}
void relax() {}  // pinsim-lint: hot
// pinsim-lint: shard-owner(0)
struct Front {};
// A comment merely TALKING about pinsim-lint: hot loops in prose must
// not annotate anything.
void cold() {}
)");
  EXPECT_EQ(find_fn(s, "spin")->annotations, std::set<std::string>{"hot"});
  EXPECT_EQ(find_fn(s, "relax")->annotations, std::set<std::string>{"hot"});
  ASSERT_EQ(s.classes.size(), 1u);
  EXPECT_EQ(s.classes[0].name, "Front");
  EXPECT_EQ(s.classes[0].annotations,
            std::set<std::string>{"shard-owner(0)"});
}

TEST(IndexSummary, BindingsAndReserves) {
  const FileSummary s = summarize(R"(
struct Balancer { void add(int); };
struct Pool {
  std::vector<int> heap_;
  void warm() { heap_.reserve(64); }
};
void use() {
  Balancer* lb = nullptr;
  lb->add(1);
}
)");
  const auto lb = s.bindings.find("lb");
  ASSERT_NE(lb, s.bindings.end());
  EXPECT_EQ(lb->second, "Balancer");
  EXPECT_EQ(s.reserved.count({"Pool", "heap_"}), 1u);
  const FunctionDef* use = find_fn(s, "use");
  ASSERT_NE(use, nullptr);
  ASSERT_EQ(use->touches.size(), 1u);
  EXPECT_EQ(use->touches[0].var, "lb");
  EXPECT_EQ(use->touches[0].type, "Balancer");
}

TEST(IndexSummary, CallbackRegistrationFoldsIntoEnclosing) {
  // A lambda handed to a registration call contributes its calls to
  // the enclosing function — the callback edge the reachability rules
  // traverse (Kernel's constructor -> on_boundary, through the
  // make_timer() callback, is the real case).
  const FileSummary s = summarize(R"(
struct Kernel {
  void arm() { schedule(5, [this] { tick(); }); }
  void tick() {}
  void schedule(int when, void* fn);
};
)");
  const FunctionDef* arm = find_fn(s, "arm", "Kernel");
  ASSERT_NE(arm, nullptr);
  EXPECT_TRUE(calls_name(*arm, "schedule"));
  EXPECT_TRUE(calls_name(*arm, "tick"));
}

TEST(IndexSummary, MailboxExtraction) {
  const FileSummary s = summarize(R"(
struct Net {
  template <typename Fn> void post(int, int, int, Fn&&);
};
struct Fleet {
  Net net_;
  void run() {
    net_.post(0, 3, 1, [this] {
      work();
      net_.post(3, 0, 1, [this] { settle(); });
    });
    net_.post(3, 0, 1, [this] { settle(); });
  }
  void work();
  void settle();
};
)");
  // Only the cross-shard post is a mailbox lambda; the two dst==0
  // posts are the sanctioned hop back and are not recorded. The
  // nested post's body is excluded from the recorded lambda.
  ASSERT_EQ(s.mailbox.size(), 1u);
  const MailboxLambda& ml = s.mailbox[0];
  EXPECT_EQ(ml.enclosing, "run");
  bool saw_work = false;
  bool saw_settle = false;
  for (const CallSite& call : ml.calls) {
    saw_work = saw_work || call.name == "work";
    saw_settle = saw_settle || call.name == "settle";
  }
  EXPECT_TRUE(saw_work);
  EXPECT_FALSE(saw_settle) << "nested post-back body must be excluded";
}

// ---------------------------------------------------------------------------
// SymbolIndex: conservative resolution.
// ---------------------------------------------------------------------------

SymbolIndex build_one(const std::string& source,
                      const std::string& path = "src/a.cpp") {
  std::vector<FileSummary> summaries;
  summaries.push_back(summarize_file(path, source));
  return SymbolIndex::build(std::move(summaries));
}

const CallSite* call_named(const SymbolIndex& index, const std::string& from,
                           const std::string& name) {
  for (const FunctionDef* fn : index.functions) {
    if (fn->name != from) continue;
    for (const CallSite& call : fn->calls) {
      if (call.name == name) return &call;
    }
  }
  return nullptr;
}

TEST(IndexResolve, GlobalUniqueAndOverloadSets) {
  const SymbolIndex index = build_one(R"(
void unique_target() {}
void twice(int) {}
void twice(double) {}
void caller() { unique_target(); twice(1); }
)");
  const CallSite* unique = call_named(index, "caller", "unique_target");
  ASSERT_NE(unique, nullptr);
  const int id = index.resolve(*unique, "src/a.cpp", "");
  ASSERT_GE(id, 0);
  EXPECT_EQ(index.functions[static_cast<std::size_t>(id)]->name,
            "unique_target");
  // Overload set: two definitions, no unique answer -> no edge.
  const CallSite* ambiguous = call_named(index, "caller", "twice");
  ASSERT_NE(ambiguous, nullptr);
  EXPECT_EQ(index.resolve(*ambiguous, "src/a.cpp", ""), -1);
}

TEST(IndexResolve, QualifierReceiverAndSameClass) {
  const SymbolIndex index = build_one(R"(
struct Host { void reset() {} };
struct Guest { void reset() {} };
void reset() {}
struct Driver {
  void reset() {}
  void drive() {
    reset();
    Host::reset();
  }
};
void outside() {
  Guest* g = nullptr;
  g->reset();
}
)");
  // Same-class preference: Driver::drive's unqualified reset() is
  // Driver::reset, despite three other candidates.
  const CallSite* bare = call_named(index, "drive", "reset");
  ASSERT_NE(bare, nullptr);
  EXPECT_FALSE(bare->member);
  int id = index.resolve(*bare, "src/a.cpp", "Driver");
  ASSERT_GE(id, 0);
  EXPECT_EQ(index.functions[static_cast<std::size_t>(id)]->klass, "Driver");
  // Explicit qualifier wins.
  bool checked_qualified = false;
  for (const FunctionDef* fn : index.functions) {
    if (fn->name != "drive") continue;
    for (const CallSite& call : fn->calls) {
      if (call.qualifier != "Host") continue;
      id = index.resolve(call, "src/a.cpp", "Driver");
      ASSERT_GE(id, 0);
      EXPECT_EQ(index.functions[static_cast<std::size_t>(id)]->klass, "Host");
      checked_qualified = true;
    }
  }
  EXPECT_TRUE(checked_qualified);
  // Receiver binding: g is declared Guest*, so g->reset() is
  // Guest::reset even from a free function.
  const CallSite* via_receiver = call_named(index, "outside", "reset");
  ASSERT_NE(via_receiver, nullptr);
  EXPECT_TRUE(via_receiver->member);
  id = index.resolve(*via_receiver, "src/a.cpp", "");
  ASSERT_GE(id, 0);
  EXPECT_EQ(index.functions[static_cast<std::size_t>(id)]->klass, "Guest");
}

TEST(IndexResolve, NamespaceQualifierNarrowsToFreeFunctions) {
  const SymbolIndex index = build_one(R"(
namespace os {
void requeue() {}
}  // namespace os
struct Guest {
  void requeue() {}
  void grant() { os::requeue(); }
};
)");
  // `os` names no class, so the qualified call is the free function,
  // not the same-named method of the calling class.
  const CallSite* call = call_named(index, "grant", "requeue");
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->qualifier, "os");
  const int id = index.resolve(*call, "src/a.cpp", "Guest");
  ASSERT_GE(id, 0);
  EXPECT_EQ(index.functions[static_cast<std::size_t>(id)]->klass, "");
}

TEST(IndexRules, CallGraphCycleTerminates) {
  // a -> b -> a with a risk inside the cycle: BFS must terminate and
  // still flag the reachable site exactly once.
  std::vector<FileSummary> summaries;
  summaries.push_back(summarize_file("src/os/cycle.cpp", R"(
// pinsim-lint: hot
void ping(int n) { pong(n); }
void pong(int n) {
  int* p = new int(n);
  delete p;
  ping(n - 1);
}
)"));
  const SymbolIndex index = SymbolIndex::build(std::move(summaries));
  std::vector<Diagnostic> diags;
  run_index_rules(default_config(), index, &diags);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "hot-path");
  EXPECT_EQ(diags[0].line, 5);
}

// ---------------------------------------------------------------------------
// Rule fixtures: exact (rule, line) in triggering files, silence in
// clean ones.
// ---------------------------------------------------------------------------

TEST(IndexRules, HotPathBad) {
  expect_index_markers("hot_path_bad.cpp", "src/os/hot.cpp");
}
TEST(IndexRules, HotPathOk) {
  expect_index_clean("hot_path_ok.cpp", "src/os/hot.cpp");
}
TEST(IndexRules, ShardAffinityBad) {
  expect_index_markers("shard_affinity_bad.cpp", "src/cluster/fleet_x.cpp");
}
TEST(IndexRules, ShardAffinityOk) {
  expect_index_clean("shard_affinity_ok.cpp", "src/cluster/fleet_x.cpp");
}

TEST(IndexRules, ShardAffinityScopedToConfiguredDirs) {
  expect_index_clean("shard_affinity_bad.cpp", "src/sim/elsewhere.cpp");
}

// ---------------------------------------------------------------------------
// Lexer: token line accounting observable through lex() directly.
// ---------------------------------------------------------------------------

TEST(LexerLines, RawStringTokenAnchorsOnStartLine) {
  const LexResult r = lex("int x = R\"(a\nb)\";\nint y;\n");
  bool saw_literal = false;
  for (const Token& t : r.tokens) {
    if (t.kind != Token::kLiteral) continue;
    saw_literal = true;
    EXPECT_EQ(t.line, 1);
  }
  EXPECT_TRUE(saw_literal);
}

TEST(LexerLines, ContinuedCommentSwallowsNextLine) {
  const LexResult r = lex("// swallowed \\\nint not_code;\nint code;\n");
  for (const Token& t : r.tokens) {
    EXPECT_NE(t.text, "not_code");
  }
  ASSERT_FALSE(r.tokens.empty());
  EXPECT_EQ(r.tokens[0].text, "int");
  EXPECT_EQ(r.tokens[0].line, 3);
}

// ---------------------------------------------------------------------------
// Whole-tree scan: serial and parallel runs are byte-identical, and
// the parallel scan of the full tree stays under the 2 s budget.
// ---------------------------------------------------------------------------

TEST(TreeScan, SerialAndParallelAreIdentical) {
  const Config config = default_config();
  TreeScanOptions options;
  for (const char* dir : {"src", "tests", "bench", "examples", "tools"}) {
    options.paths.push_back(dir);
  }

  options.jobs = 1;
  TreeScanResult serial;
  std::string error;
  ASSERT_TRUE(
      scan_tree(config, PINSIM_LINT_REPO_ROOT, options, &serial, &error))
      << error;
  ASSERT_GT(serial.files.size(), 100u) << "tree scan found too few files";

  options.jobs = 8;
  TreeScanResult parallel;
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(
      scan_tree(config, PINSIM_LINT_REPO_ROOT, options, &parallel, &error))
      << error;
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();

  EXPECT_EQ(serial.files, parallel.files);
  EXPECT_EQ(serial.indexed, parallel.indexed);
  ASSERT_EQ(serial.diags.size(), parallel.diags.size());
  for (std::size_t i = 0; i < serial.diags.size(); ++i) {
    EXPECT_EQ(serial.diags[i].file, parallel.diags[i].file);
    EXPECT_EQ(serial.diags[i].line, parallel.diags[i].line);
    EXPECT_EQ(serial.diags[i].rule, parallel.diags[i].rule);
    EXPECT_EQ(serial.diags[i].message, parallel.diags[i].message);
  }
  EXPECT_LT(ms, 2000.0) << "parallel full-tree scan blew the 2 s budget";
}

}  // namespace
}  // namespace pinsim::lint
