// pinsim_lint CLI: walk the repo, run every rule pass, print findings.
//
//   pinsim_lint [--root DIR] [--jobs N] [--json] [path...]
//
// Paths are repo-relative files or directories (default: src tests
// bench examples tools). Directories are walked recursively for
// .cpp/.hpp/.h files; the lint's own fixture corpus (any directory
// named `fixtures`) and build trees are skipped. On top of the
// per-file passes, the whole of src/ is summarized into the cross-file
// symbol index so shard-affinity / hot-path see whole call chains;
// --jobs parallelizes the per-file work (output is byte-identical to
// --jobs 1). --json emits findings, per-rule counts, and the scan wall
// time as a machine-readable report. Exit status: 0 clean, 1 findings,
// 2 usage or IO error — same convention as the benches.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "index.hpp"
#include "lint.hpp"
#include "util/thread_pool.hpp"

namespace fs = std::filesystem;

namespace {

int usage(int code) {
  std::cout
      << "usage: pinsim_lint [--root DIR] [--jobs N] [--json] [path...]\n"
         "  Checks pinsim's determinism / ordering / index-safety /\n"
         "  predicate-purity / float-accumulation / hygiene invariants,\n"
         "  plus the cross-file shard-affinity / hot-path reachability\n"
         "  rules. Paths are repo-relative (default: src tests bench\n"
         "  examples tools). --jobs N parallelizes the scan (same output\n"
         "  as --jobs 1); --json emits a machine-readable report.\n"
         "  Suppress a finding with\n"
         "  // pinsim-lint: allow(<rule>)\n";
  return code;
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_json(const pinsim::lint::TreeScanResult& result, double wall_ms) {
  std::map<std::string, int> rule_counts;
  for (const auto& d : result.diags) ++rule_counts[d.rule];
  std::cout << "{\n";
  std::cout << "  \"files\": " << result.files.size() << ",\n";
  std::cout << "  \"indexed\": " << result.indexed << ",\n";
  std::cout << "  \"wall_ms\": " << wall_ms << ",\n";
  std::cout << "  \"rule_counts\": {";
  bool first = true;
  for (const auto& [rule, count] : rule_counts) {
    std::cout << (first ? "" : ", ") << "\"" << json_escape(rule)
              << "\": " << count;
    first = false;
  }
  std::cout << "},\n";
  std::cout << "  \"findings\": [";
  first = true;
  for (const auto& d : result.diags) {
    std::cout << (first ? "\n" : ",\n")
              << "    {\"file\": \"" << json_escape(d.file)
              << "\", \"line\": " << d.line << ", \"rule\": \""
              << json_escape(d.rule) << "\", \"message\": \""
              << json_escape(d.message) << "\"}";
    first = false;
  }
  std::cout << (first ? "]\n" : "\n  ]\n");
  std::cout << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> paths;
  int jobs = pinsim::util::ThreadPool::default_jobs();
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--root") {
      if (i + 1 >= argc) return usage(2);
      root = argv[++i];
    } else if (arg == "--jobs") {
      if (i + 1 >= argc) return usage(2);
      try {
        jobs = std::stoi(argv[++i]);
      } catch (...) {
        return usage(2);
      }
    } else if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "pinsim_lint: unknown option " << arg << "\n";
      return usage(2);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    for (const char* dir : {"src", "tests", "bench", "examples", "tools"}) {
      std::error_code ec;
      if (fs::is_directory(fs::path(root) / dir, ec)) paths.push_back(dir);
    }
  }

  const auto start = std::chrono::steady_clock::now();
  const pinsim::lint::Config config = pinsim::lint::default_config();
  pinsim::lint::TreeScanOptions options;
  options.paths = paths;
  options.jobs = jobs;
  pinsim::lint::TreeScanResult result;
  std::string error;
  if (!pinsim::lint::scan_tree(config, root, options, &result, &error)) {
    std::cerr << "pinsim_lint: " << error << "\n";
    return 2;
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  if (json) {
    print_json(result, wall_ms);
  } else {
    for (const auto& d : result.diags) {
      std::cout << d.file << ":" << d.line << ": [" << d.rule << "] "
                << d.message << "\n";
    }
    std::cout << "pinsim_lint: " << result.files.size() << " files, "
              << result.diags.size() << " finding"
              << (result.diags.size() == 1 ? "" : "s") << "\n";
  }
  return result.diags.empty() ? 0 : 1;
}
