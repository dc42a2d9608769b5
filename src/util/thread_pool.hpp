// Fixed-size worker pool with a shared work queue.
//
// The experiment harness fans independent (spec, repetition) simulation
// cells across workers; each cell builds its own Host/platform/workload
// from its own seed, so workers share nothing but the queue. submit()
// returns a std::future so callers can gather results in a deterministic
// order regardless of completion order.
#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/move_function.hpp"

namespace pinsim::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);

  /// Drains nothing: outstanding tasks still run; the destructor joins
  /// after the queue empties.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue `fn` and return a future for its result. Exceptions thrown
  /// by `fn` surface through future::get().
  template <typename F>
  auto submit(F fn) -> std::future<std::invoke_result_t<F&>> {
    using Result = std::invoke_result_t<F&>;
    std::packaged_task<Result()> task(std::move(fn));
    std::future<Result> future = task.get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([t = std::move(task)]() mutable { t(); });
    }
    ready_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<MoveFunction> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace pinsim::util
