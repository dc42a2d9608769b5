#include "os/runqueue.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pinsim::os {

void Runqueue::place(std::size_t index, const Slot& slot) {
  heap_[index] = slot;
  slot.task->rq_index_ = static_cast<int>(index);
}

void Runqueue::sift_up(std::size_t index) {
  const Slot moving = heap_[index];
  while (index > 0) {
    const std::size_t parent = (index - 1) / 2;
    if (!key_less(moving, heap_[parent])) break;
    place(index, heap_[parent]);
    index = parent;
  }
  place(index, moving);
}

void Runqueue::sift_down(std::size_t index) {
  const Slot moving = heap_[index];
  const std::size_t size = heap_.size();
  while (true) {
    std::size_t child = 2 * index + 1;
    if (child >= size) break;
    if (child + 1 < size && key_less(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!key_less(heap_[child], moving)) break;
    place(index, heap_[child]);
    index = child;
  }
  place(index, moving);
}

void Runqueue::enqueue(Task& task) {
  PINSIM_CHECK_MSG(!contains(task),
                   "task " << task.name() << " enqueued twice");
  heap_.push_back(Slot{task.vruntime, task.id(), &task});
  task.rq_index_ = static_cast<int>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
  min_vruntime_ = std::max(min_vruntime_, heap_.front().vruntime);
}

void Runqueue::remove(Task& task) {
  PINSIM_CHECK_MSG(contains(task),
                   "task " << task.name() << " not in runqueue");
  const std::size_t index = static_cast<std::size_t>(task.rq_index_);
  task.rq_index_ = -1;
  const Slot last = heap_.back();
  heap_.pop_back();
  if (index == heap_.size()) return;  // removed the trailing slot
  place(index, last);
  sift_up(index);
  sift_down(static_cast<std::size_t>(last.task->rq_index_));
}

bool Runqueue::contains(const Task& task) const {
  const int index = task.rq_index_;
  return index >= 0 && index < static_cast<int>(heap_.size()) &&
         heap_[static_cast<std::size_t>(index)].task == &task;
}

Task* Runqueue::peek_min() const {
  if (heap_.empty()) return nullptr;
  return heap_.front().task;
}

Task& Runqueue::pop_min() {
  PINSIM_CHECK(!heap_.empty());
  Task& task = *heap_.front().task;
  min_vruntime_ = std::max(min_vruntime_, heap_.front().vruntime);
  task.rq_index_ = -1;
  const Slot last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    place(0, last);
    sift_down(0);
  }
  return task;
}

Task* Runqueue::peek_max() const {
  const Slot* best = nullptr;
  for (const Slot& slot : heap_) {
    if (best == nullptr || key_less(*best, slot)) best = &slot;
  }
  return best == nullptr ? nullptr : best->task;
}

}  // namespace pinsim::os
