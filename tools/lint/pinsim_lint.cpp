// pinsim_lint CLI: walk the repo, run every rule pass, print findings.
//
//   pinsim_lint [--root DIR] [path...]
//
// Paths are repo-relative files or directories (default: src tests
// bench examples tools). Directories are walked recursively for
// .cpp/.hpp/.h files; the lint's own fixture corpus (any directory
// named `fixtures`) and build trees are skipped. Every rule is a
// per-file pass. Exit status: 0 clean, 1 findings, 2 usage or IO
// error — same convention as the benches.
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;

namespace {

int usage(int code) {
  std::cout << "usage: pinsim_lint [--root DIR] [path...]\n"
               "  Checks pinsim's determinism / ordering / hygiene\n"
               "  invariants. Paths are repo-relative (default: src tests\n"
               "  bench examples tools). Suppress a finding with\n"
               "  // pinsim-lint: allow(<rule>)\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--root") {
      if (i + 1 >= argc) return usage(2);
      root = argv[++i];
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

  pinsim::lint::TreeScanResult result;
  std::string error;
  if (!pinsim::lint::scan_tree(pinsim::lint::default_config(), root, paths,
                               &result, &error)) {
    std::cerr << "pinsim_lint: " << error << "\n";
    return 2;
  }
  for (const auto& d : result.diags) {
    std::cout << d.file << ":" << d.line << ": [" << d.rule << "] "
              << d.message << "\n";
  }
  std::cout << "pinsim_lint: " << result.files.size() << " files, "
            << result.diags.size() << " finding"
            << (result.diags.size() == 1 ? "" : "s") << "\n";
  return result.diags.empty() ? 0 : 1;
}
