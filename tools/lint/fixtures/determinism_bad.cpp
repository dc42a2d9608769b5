// Fixture: every determinism violation the analyzer must catch.
// lint_test.cpp analyzes this file as if it lived under src/os/ (where
// the whole determinism rule applies), and under src/core/, bench/,
// examples/ and tests/ (where only the unordered-iteration check, or
// nothing, applies). An expect marker names the exact line a finding
// must land on.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>
#include <unordered_map>
#include <unordered_set>

namespace fixture {

struct Sim {
  std::unordered_map<int, int> table;
  std::unordered_set<int> members;

  long bad_clock() {
    auto t = std::chrono::steady_clock::now();  // expect: determinism
    long base = time(nullptr);                  // expect: determinism
    return base + t.time_since_epoch().count();
  }

  int bad_rng() {
    std::random_device dev;  // expect: determinism
    return rand() + dev();   // expect: determinism
  }

  const char* bad_env() {
    return getenv("PINSIM_MODE");  // expect: determinism
  }

  int bad_iteration() const {
    int sum = 0;
    for (const auto& kv : table) {  // expect: determinism
      sum += kv.second;
    }
    for (auto it = members.begin(); it != members.end(); ++it) {  // expect: determinism
      sum += *it;
    }
    return sum;
  }
};

}  // namespace fixture
