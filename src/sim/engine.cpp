#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

namespace pinsim::sim {

namespace {

// Process-wide totals, folded in by ~Engine. Worker threads each own
// private engines, so contention is one batch of relaxed adds per
// simulation, not per event.
std::atomic<std::int64_t> g_scheduled{0};
std::atomic<std::int64_t> g_fired{0};
std::atomic<std::int64_t> g_reschedules{0};
std::atomic<std::int64_t> g_peak_heap{0};

}  // namespace

EngineStats aggregate_engine_stats() {
  EngineStats stats;
  stats.scheduled = g_scheduled.load(std::memory_order_relaxed);
  stats.fired = g_fired.load(std::memory_order_relaxed);
  stats.reschedules = g_reschedules.load(std::memory_order_relaxed);
  stats.peak_heap = g_peak_heap.load(std::memory_order_relaxed);
  return stats;
}

Engine::~Engine() {
  const EngineStats s = stats();
  g_scheduled.fetch_add(s.scheduled, std::memory_order_relaxed);
  g_fired.fetch_add(s.fired, std::memory_order_relaxed);
  g_reschedules.fetch_add(s.reschedules, std::memory_order_relaxed);
  std::int64_t peak = g_peak_heap.load(std::memory_order_relaxed);
  while (peak < s.peak_heap &&
         !g_peak_heap.compare_exchange_weak(peak, s.peak_heap,
                                            std::memory_order_relaxed)) {
  }
}

template <bool kTimer>
Engine::Entry Engine::pop_min() {
  // Bottom-up extraction: walk the hole left by the root down the
  // min-child path to a leaf (child comparisons only), then bubble the
  // displaced last element up from there. The last element came from the
  // bottom of the heap, so the up pass almost always stops immediately —
  // this skips the per-level value comparison of a classic sift-down.
  // The min-child scan is written so each step is a conditional move,
  // not a data-dependent branch.
  std::vector<Entry>& h = heap<kTimer>();
  const Entry top = h.front();
  const Entry last = h.back();
  h.pop_back();
  const std::size_t n = h.size();
  if (n == 0) return top;
  std::size_t hole = 0;
  while (true) {
    const std::size_t first = 4 * hole + 1;
    if (first + 4 <= n) {
      // Full fan-out: pairwise tournament so the two halves race in
      // parallel instead of one serial cmov chain over four children.
      const unsigned __int128 k0 = h[first].key;
      const unsigned __int128 k1 = h[first + 1].key;
      const unsigned __int128 k2 = h[first + 2].key;
      const unsigned __int128 k3 = h[first + 3].key;
      const std::size_t a = k1 < k0 ? first + 1 : first;
      const unsigned __int128 ka = k1 < k0 ? k1 : k0;
      const std::size_t b = k3 < k2 ? first + 3 : first + 2;
      const unsigned __int128 kb = k3 < k2 ? k3 : k2;
      const std::size_t best = kb < ka ? b : a;
      put<kTimer>(hole, h[best]);
      hole = best;
      continue;
    }
    if (first >= n) break;
    std::size_t best = first;
    unsigned __int128 best_key = h[first].key;
    for (std::size_t c = first + 1; c < n; ++c) {
      const unsigned __int128 ck = h[c].key;
      const bool lt = ck < best_key;
      best = lt ? c : best;
      best_key = lt ? ck : best_key;
    }
    put<kTimer>(hole, h[best]);
    hole = best;
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) >> 2;
    if (last.key >= h[parent].key) break;
    put<kTimer>(hole, h[parent]);
    hole = parent;
  }
  put<kTimer>(hole, last);
  return top;
}

template Engine::Entry Engine::pop_min<true>();
template Engine::Entry Engine::pop_min<false>();

void Engine::sift_down(std::size_t i) {
  // Reached from a re-arm to the same instant (the fresh seq grows the
  // key) or later, and from cancel_timer().
  const Entry value = timers_[i];
  const std::size_t n = timers_.size();
  while (true) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + 4, n);
    std::size_t best = first;
    unsigned __int128 best_key = timers_[first].key;
    for (std::size_t c = first + 1; c < end; ++c) {
      const unsigned __int128 ck = timers_[c].key;
      const bool lt = ck < best_key;
      best = lt ? c : best;
      best_key = lt ? ck : best_key;
    }
    if (value.key <= best_key) break;
    put<true>(i, timers_[best]);
    i = best;
  }
  put<true>(i, value);
}

// Cold: one call per 256 nodes. Out of line (and never inlined) so
// acquire_node() stays small enough to inline into the schedule path.
__attribute__((noinline)) void Engine::grow_slab() {
  // The slab growth itself is the sanctioned cold-path allocation: one
  // call per 256 nodes, explicitly kept out of line.
  // pinsim-lint: allow(hot-path)
  chunks_.push_back(std::make_unique<Callback[]>(kChunkSize));
  slot_of_.resize(chunks_.size() << kChunkShift);
  // Every heap entry and every free-list entry refers to a distinct live
  // node, so node capacity bounds each heap and the free list. Reserving
  // here makes scheduling, arming and freeing allocation-free between
  // slab growths.
  timers_.reserve(chunks_.size() << kChunkShift);
  events_.reserve(chunks_.size() << kChunkShift);
  free_nodes_.reserve(chunks_.size() << kChunkShift);
}

void Engine::cancel_timer(std::uint32_t id) {
  const std::uint32_t slot = slot_of_[id];
  if (slot == kNotQueued) return;
  slot_of_[id] = kNotQueued;
  const Entry last = timers_.back();
  timers_.pop_back();
  if (slot == timers_.size()) return;
  put<true>(slot, last);
  if (slot > 0 && last.key < timers_[(slot - 1) >> 2].key) {
    sift_up<true>(slot);
  } else {
    sift_down(slot);
  }
}

void Engine::drop_timer(std::uint32_t id) {
  cancel_timer(id);
  node(id) = Callback();
  free_nodes_.push_back(id);
}

bool Engine::step(SimTime horizon) {
  // Fire whichever top has the smaller (when, seq) key: the order one
  // merged heap would give. Keys are unique, so there are no ties.
  const bool from_timers =
      !timers_.empty() &&
      (events_.empty() || timers_.front().key < events_.front().key);
  const std::vector<Entry>& next = from_timers ? timers_ : events_;
  if (next.empty() || when_of(next.front()) > horizon) return false;
  if (from_timers) {
    const Entry top = pop_min<true>();
    // The timer keeps its node and callback: mark it unqueued (so it
    // reads as disarmed inside its own callback) and run it in place.
    slot_of_[top.node] = kNotQueued;
    now_ = when_of(top);
    ++stats_.fired;
    node(top.node)();
    return true;
  }
  const Entry top = pop_min<false>();
  now_ = when_of(top);
  ++stats_.fired;
  // Move the callback out and free the node before invoking, so nested
  // scheduling can reuse the node immediately.
  Callback fn = std::move(node(top.node));
  free_nodes_.push_back(top.node);
  fn();
  return true;
}

std::int64_t Engine::run(SimTime horizon) {
  std::int64_t fired = 0;
  while (step(horizon)) {
    ++fired;
  }
  if (horizon != kNoHorizon && now_ < horizon && empty()) {
    now_ = horizon;
  }
  return fired;
}

}  // namespace pinsim::sim
