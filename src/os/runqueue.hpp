// Per-cpu run queue ordered by virtual runtime.
//
// The CFS analogue: the task with the smallest (vruntime, id) key runs
// next. Every task has the same weight (vruntime advances by the cpu
// time it ran), so runnable tasks share cpu time equally. The kernel
// keeps one Runqueue per logical cpu; the guest kernel keeps one per
// vCPU.
//
// Implemented as an indexed flat binary min-heap: slots live in one
// vector (no per-enqueue node allocation after warmup) and each queued
// Task carries its own slot index, so removal from the middle is
// O(log n) without a search. The (vruntime, id) tie-break order of the
// historical std::set implementation is preserved exactly — keys are
// unique, so pop_min/peek_min are deterministic regardless of the
// heap's internal arrangement.
#pragma once

#include <vector>

#include "os/task.hpp"
#include "util/units.hpp"

namespace pinsim::os {

class Runqueue {
 public:
  void enqueue(Task& task);
  void remove(Task& task);
  bool contains(const Task& task) const;

  /// Pre-size the heap so enqueue never reallocates on the hot path.
  /// Both kernels call this as tasks start (os::reserve_runqueues): the
  /// live task count bounds any single queue, and they reserve twice
  /// that as the count grows.
  void reserve(std::size_t n) { heap_.reserve(n); }
  /// Slots the heap holds before enqueue would reallocate.
  std::size_t capacity() const { return heap_.capacity(); }

  /// Task with the smallest vruntime, or nullptr when empty.
  Task* peek_min() const;
  /// Remove and return the minimum-vruntime task; requires non-empty.
  Task& pop_min();

  /// Steal candidate: the task with the *largest* vruntime (it has had
  /// the most service, so moving it is fairest), or nullptr when empty.
  Task* peek_max() const;

  int size() const { return static_cast<int>(heap_.size()); }
  bool empty() const { return heap_.empty(); }

  /// Floor for newly woken tasks so sleepers cannot monopolize the cpu
  /// with an ancient vruntime.
  SimDuration min_vruntime() const { return min_vruntime_; }

  /// Iterate over queued tasks in heap order — NO vruntime ordering.
  /// Order-sensitive callers use max_where / pop_min instead.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : heap_) fn(*slot.task);
  }

  /// The queued task with the largest (vruntime, id) key satisfying
  /// `pred` — the most-serviced eligible task, i.e. the fairest
  /// steal/balance candidate — or nullptr when none qualifies.
  template <typename Pred>
  Task* max_where(Pred&& pred) const {
    const Slot* best = nullptr;
    for (const Slot& slot : heap_) {
      if (!pred(*slot.task)) continue;
      if (best == nullptr || key_less(*best, slot)) best = &slot;
    }
    return best == nullptr ? nullptr : best->task;
  }

 private:
  struct Slot {
    SimDuration vruntime;
    Task::Id id;
    Task* task;
  };

  static bool key_less(const Slot& a, const Slot& b) {
    if (a.vruntime != b.vruntime) return a.vruntime < b.vruntime;
    return a.id < b.id;
  }

  void place(std::size_t index, const Slot& slot);
  void sift_up(std::size_t index);
  void sift_down(std::size_t index);

  std::vector<Slot> heap_;
  SimDuration min_vruntime_ = 0;
};

}  // namespace pinsim::os
