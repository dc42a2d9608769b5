// Hot-path fixture: every allocation-risk site reachable from the hot
// entry is flagged — in the entry itself, in a same-class callee, in an
// out-of-class definition, and in a free function two hops down. The
// reserve()d container is exempt; the never-reserved one is not.
#include <functional>
#include <memory>
#include <vector>

namespace fixture {

void record_stats();

struct Queue {
  std::vector<int> heap_;
  std::vector<int> scratch_;

  void warm() { heap_.reserve(64); }

  // pinsim-lint: hot
  int pop() {
    heap_.push_back(1);     // reserve()d in warm(): exempt
    scratch_.push_back(2);  // expect: hot-path
    refill();
    return helper();
  }

  void refill() {
    int* leak = new int(3);  // expect: hot-path
    delete leak;
  }

  int helper();
};

int Queue::helper() {
  auto owned = std::make_unique<int>(4);  // expect: hot-path
  std::function<void()> deferred;         // expect: hot-path
  record_stats();
  return *owned;
}

void record_stats() {
  int* sample = new int(6);  // expect: hot-path
  delete sample;
}

// Not reachable from the hot entry: no findings here.
void rebuild_cold(Queue& q) {
  q.scratch_.push_back(9);
  int* scratch = new int(5);
  delete scratch;
}

}  // namespace fixture
