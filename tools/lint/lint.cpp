#include "lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "lexer.hpp"

namespace pinsim::lint {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rule-pass helpers. The lexer (and its allow() side channel) lives in
// lexer.{hpp,cpp}.
// ---------------------------------------------------------------------------

class Checker {
 public:
  Checker(const Config& config, std::string_view path, const LexResult& lexed,
          std::vector<Diagnostic>* out)
      : config_(config), path_(path), lexed_(lexed), out_(out) {}

  void run();

 private:
  const std::vector<Token>& toks() const { return lexed_.tokens; }

  const Token* at(std::size_t i) const {
    return i < toks().size() ? &toks()[i] : nullptr;
  }
  bool is_ident(std::size_t i, std::string_view text) const {
    const Token* t = at(i);
    return t != nullptr && t->kind == Token::kIdent && t->text == text;
  }
  bool is_punct(std::size_t i, std::string_view text) const {
    const Token* t = at(i);
    return t != nullptr && t->kind == Token::kPunct && t->text == text;
  }

  /// True for `name(` call/use sites that are not member accesses on
  /// some unrelated object (`obj.time(...)`), not qualified by a
  /// namespace other than std (`mylib::rand(...)`), and not a
  /// declaration of an unrelated function that merely shares the name
  /// (`long time() const;` — preceded by a type, i.e. a non-keyword
  /// identifier or a declarator token).
  bool is_free_or_std_call(std::size_t i) const {
    if (!is_punct(i + 1, "(")) return false;
    if (i == 0) return true;
    const Token& prev = toks()[i - 1];
    if (prev.kind == Token::kIdent) {
      // `return time(...)` is a call; `long time()` is a declaration.
      static const std::set<std::string> expression_keywords = {
          "return", "co_return", "co_yield", "case", "else", "do", "throw"};
      return expression_keywords.count(prev.text) != 0;
    }
    if (prev.kind != Token::kPunct) return true;
    if (prev.text == "." || prev.text == "->") return false;
    if (prev.text == "::") return i >= 2 && is_ident(i - 2, "std");
    // `T* time(...)` / `T& rand(...)` declarator shapes.
    if (prev.text == "*" || prev.text == "&") {
      return !(i >= 2 && toks()[i - 2].kind == Token::kIdent);
    }
    return true;
  }

  void report(const std::string& rule, int line, std::string message) {
    const auto it = lexed_.allows.find(line);
    if (it != lexed_.allows.end() &&
        (it->second.count(rule) != 0 || it->second.count("all") != 0)) {
      return;
    }
    out_->push_back(
        Diagnostic{rule, std::string(path_), line, std::move(message)});
  }

  /// Starting at the index of a '<', return the index one past its
  /// matching '>' (token indexes). Also reports, via `has_pointer_key`,
  /// whether the FIRST top-level template argument contains a '*'.
  std::size_t skip_template_args(std::size_t open, bool* has_pointer_key);

  /// Names of variables/members declared in this file with an
  /// unordered_map/unordered_set type.
  std::set<std::string> collect_unordered_names();

  void check_host_reads();
  void check_unordered_iteration();
  void check_ordering();
  void check_hygiene();

  const Config& config_;
  std::string_view path_;
  const LexResult& lexed_;
  std::vector<Diagnostic>* out_;
};

std::size_t Checker::skip_template_args(std::size_t open,
                                        bool* has_pointer_key) {
  if (has_pointer_key != nullptr) *has_pointer_key = false;
  int depth = 0;
  bool in_first_arg = true;
  std::size_t i = open;
  for (; i < toks().size(); ++i) {
    const Token& t = toks()[i];
    if (t.kind != Token::kPunct) continue;
    if (t.text == "<") {
      ++depth;
    } else if (t.text == ">") {
      --depth;
      if (depth == 0) return i + 1;
    } else if (t.text == "," && depth == 1) {
      in_first_arg = false;
    } else if (t.text == "*" && depth == 1 && in_first_arg &&
               has_pointer_key != nullptr) {
      *has_pointer_key = true;
    } else if (t.text == ";" && depth > 0) {
      break;  // malformed input; bail rather than scan the whole file
    }
  }
  return i;
}

std::set<std::string> Checker::collect_unordered_names() {
  std::set<std::string> names;
  for (std::size_t i = 0; i < toks().size(); ++i) {
    if (!(is_ident(i, "unordered_map") || is_ident(i, "unordered_set"))) {
      continue;
    }
    if (!is_punct(i + 1, "<")) continue;
    std::size_t j = skip_template_args(i + 1, nullptr);
    // Skip declarator decorations between the type and the name.
    while (j < toks().size() &&
           (is_punct(j, "&") || is_punct(j, "*") || is_ident(j, "const"))) {
      ++j;
    }
    const Token* name = at(j);
    if (name != nullptr && name->kind == Token::kIdent) {
      names.insert(name->text);
    }
  }
  return names;
}

void Checker::check_host_reads() {
  const std::string rule = "determinism";
  for (std::size_t i = 0; i < toks().size(); ++i) {
    const Token& t = toks()[i];
    if (t.kind != Token::kIdent) continue;
    // <anything>_clock::now — wall/monotonic clock reads.
    if (t.text.size() > 6 &&
        t.text.compare(t.text.size() - 6, 6, "_clock") == 0 &&
        is_punct(i + 1, "::") && is_ident(i + 2, "now")) {
      report(rule, toks()[i + 2].line,
             "host clock read (" + t.text +
                 "::now) in simulated code; derive time from Engine::now()");
      continue;
    }
    if (t.text == "time" && is_free_or_std_call(i)) {
      report(rule, t.line,
             "time() reads the host clock; derive time from Engine::now()");
      continue;
    }
    if (t.text == "rand" && is_free_or_std_call(i)) {
      report(rule, t.line,
             "rand() draws from hidden global state; use the seeded "
             "util::Rng plumbed through the experiment");
      continue;
    }
    if (t.text == "getenv" && is_free_or_std_call(i)) {
      report(rule, t.line,
             "getenv() makes simulated behaviour depend on the host "
             "environment; thread configuration through parameters");
      continue;
    }
    if (t.text == "random_device") {
      report(rule, t.line,
             "std::random_device is nondeterministic; use the seeded "
             "util::Rng plumbed through the experiment");
    }
  }
}

void Checker::check_unordered_iteration() {
  const std::string rule = "determinism";
  const std::set<std::string> unordered = collect_unordered_names();
  for (std::size_t i = 0; i < toks().size(); ++i) {
    const Token& t = toks()[i];
    if (t.kind != Token::kIdent) continue;
    // Iterator loops: <unordered var>.begin()/cbegin().
    if ((t.text == "begin" || t.text == "cbegin") && i >= 2 &&
        (is_punct(i - 1, ".") || is_punct(i - 1, "->")) &&
        toks()[i - 2].kind == Token::kIdent &&
        unordered.count(toks()[i - 2].text) != 0) {
      report(rule, t.line,
             "iteration over unordered container '" + toks()[i - 2].text +
                 "' — bucket order is not deterministic across runs");
      continue;
    }
    // Range-for whose range expression names an unordered container.
    if (t.text == "for" && is_punct(i + 1, "(")) {
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < toks().size(); ++j) {
        if (is_punct(j, "(")) {
          ++depth;
        } else if (is_punct(j, ")")) {
          if (--depth == 0) {
            close = j;
            break;
          }
        } else if (depth == 1 && colon == 0 && is_punct(j, ":")) {
          colon = j;
        }
      }
      if (colon == 0 || close == 0) continue;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks()[j].kind == Token::kIdent &&
            unordered.count(toks()[j].text) != 0) {
          report(rule, t.line,
                 "range-for over unordered container '" + toks()[j].text +
                     "' — bucket order is not deterministic across runs");
          break;
        }
      }
    }
  }
}

void Checker::check_ordering() {
  const std::string rule = "ordering";
  for (std::size_t i = 0; i < toks().size(); ++i) {
    if (!is_ident(i, "map") && !is_ident(i, "set") && !is_ident(i, "less")) {
      continue;
    }
    // Require std:: qualification so domain types named `map` survive.
    if (!(i >= 2 && is_punct(i - 1, "::") && is_ident(i - 2, "std"))) continue;
    if (!is_punct(i + 1, "<")) continue;
    bool pointer_key = false;
    skip_template_args(i + 1, &pointer_key);
    if (!pointer_key) continue;
    const std::string& what = toks()[i].text;
    report(rule, toks()[i].line,
           "pointer-keyed std::" + what +
               " — pointer order is allocation order and varies across "
               "runs; key by a stable id instead");
  }
}

void Checker::check_hygiene() {
  const std::string rule = "hygiene";
  const auto ends_with = [this](std::string_view suffix) {
    return path_.size() >= suffix.size() &&
           path_.compare(path_.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
  };
  const bool is_header = ends_with(".hpp") || ends_with(".h");
  if (is_header) {
    bool pragma_once = false;
    for (const Token& t : toks()) {
      if (t.kind != Token::kDirective) continue;
      std::istringstream words(t.text);
      std::string hash, pragma, once;
      words >> hash >> pragma >> once;
      // `#pragma once` or `# pragma once`.
      if (hash == "#" && pragma == "pragma" && once == "once") {
        pragma_once = true;
      }
      if (hash == "#pragma" && pragma == "once") pragma_once = true;
    }
    if (!pragma_once) {
      report(rule, 1, "header is missing #pragma once");
    }
  }
  // Namespace-scope `using namespace` in headers. The brace stack
  // tracks whether every enclosing '{' belongs to a namespace: a
  // directive inside a function body (all-false suffix) is local and
  // fine, one visible at namespace scope leaks into every includer.
  if (is_header) {
    std::vector<bool> brace_is_namespace;
    bool pending_namespace = false;
    for (std::size_t i = 0; i < toks().size(); ++i) {
      const Token& t = toks()[i];
      if (t.kind == Token::kIdent && t.text == "using" &&
          is_ident(i + 1, "namespace")) {
        const bool at_namespace_scope =
            std::find(brace_is_namespace.begin(), brace_is_namespace.end(),
                      false) == brace_is_namespace.end();
        if (at_namespace_scope) {
          report(rule, t.line,
                 "`using namespace` at namespace scope in a header leaks "
                 "into every includer");
        }
        continue;
      }
      if (t.kind == Token::kIdent && t.text == "namespace" &&
          !(i > 0 && is_ident(i - 1, "using"))) {
        pending_namespace = true;
        continue;
      }
      if (t.kind != Token::kPunct) continue;
      if (t.text == "{") {
        brace_is_namespace.push_back(pending_namespace);
        pending_namespace = false;
      } else if (t.text == "}") {
        if (!brace_is_namespace.empty()) brace_is_namespace.pop_back();
      } else if (t.text == ";") {
        pending_namespace = false;
      }
    }
  }
  // Direct stdout writes outside the CLI/tool surfaces.
  bool output_ok = false;
  for (const std::string& allowed : config_.output_allowed) {
    if (path_matches(path_, allowed)) output_ok = true;
  }
  if (!output_ok) {
    for (std::size_t i = 0; i < toks().size(); ++i) {
      const Token& t = toks()[i];
      if (t.kind != Token::kIdent) continue;
      if (t.text == "cout") {
        report(rule, t.line,
               "std::cout in library code — return data to the caller");
      } else if (t.text == "printf" && is_free_or_std_call(i)) {
        report(rule, t.line,
               "printf in library code — return data to the caller");
      }
    }
  }
}

void Checker::run() {
  const auto in_any = [this](const std::vector<std::string>& dirs) {
    for (const std::string& dir : dirs) {
      if (path_matches(path_, dir)) return true;
    }
    return false;
  };
  if (in_any(config_.simulated_dirs)) {
    check_host_reads();
    check_ordering();
  }
  if (in_any(config_.unordered_iteration_dirs)) check_unordered_iteration();
  check_hygiene();
}

}  // namespace

bool path_matches(std::string_view path, std::string_view pattern) {
  if (pattern.empty()) return false;
  if (pattern.back() == '/') {
    return path.size() > pattern.size() &&
           path.compare(0, pattern.size(), pattern) == 0;
  }
  return path == pattern;
}

Config default_config() {
  Config config;
  config.simulated_dirs = {"src/sim/",      "src/os/",       "src/hw/",
                           "src/virt/",     "src/workload/", "src/cluster/"};
  config.output_allowed = {"bench/", "examples/", "tools/"};
  config.unordered_iteration_dirs = {"src/", "bench/", "examples/"};
  return config;
}

void analyze_file(const Config& config, std::string_view path,
                  std::string_view contents, std::vector<Diagnostic>* out) {
  const LexResult lexed = lex(contents);
  Checker(config, path, lexed, out).run();
  // Report in (line, rule) order regardless of pass order so output is
  // stable and tests can assert exact sequences.
  std::stable_sort(out->begin(), out->end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
}

namespace {

bool source_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

bool skipped_dir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name == "fixtures" || name.rfind("build", 0) == 0 ||
         name.rfind('.', 0) == 0;
}

/// Append the repo-relative source paths under `rel` (a file or a
/// directory), skipping fixture corpora, build trees and dot-dirs.
bool collect_sources(const std::string& root, const std::string& rel,
                     std::vector<std::string>* out, std::string* error) {
  const fs::path full = fs::path(root) / rel;
  std::error_code ec;
  if (fs::is_regular_file(full, ec)) {
    out->push_back(rel);
    return true;
  }
  if (!fs::is_directory(full, ec)) {
    *error = "no such file or directory: " + full.string();
    return false;
  }
  fs::recursive_directory_iterator it(full, ec), end;
  for (; !ec && it != end; it.increment(ec)) {
    if (it->is_directory() && skipped_dir(it->path())) {
      it.disable_recursion_pending();
    } else if (it->is_regular_file() && source_file(it->path())) {
      out->push_back(fs::relative(it->path(), root).generic_string());
    }
  }
  if (ec) *error = "cannot walk " + full.string() + ": " + ec.message();
  return !ec;
}

}  // namespace

bool scan_tree(const Config& config, const std::string& root,
               const std::vector<std::string>& paths, TreeScanResult* result,
               std::string* error) {
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    if (!collect_sources(root, p, &files, error)) return false;
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  for (const std::string& rel : files) {
    std::ifstream in(fs::path(root) / rel, std::ios::binary);
    if (!in) {
      *error = "cannot read " + rel;
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    analyze_file(config, rel, buffer.str(), &result->diags);
  }
  result->files = std::move(files);
  return true;
}

}  // namespace pinsim::lint
