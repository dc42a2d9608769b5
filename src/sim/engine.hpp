// Discrete-event simulation engine.
//
// A single monotonically advancing clock and two kinds of event, each in
// its own 4-ary min-heap keyed by (when, seq):
//
// - Fire-once events (schedule_detached()/schedule_detached_at()): a
//   callback that runs once and cannot be retracted — wakeups, IO
//   completions, message deliveries.
// - Timers (make_timer()): persistent re-armable events, Linux's hrtimer
//   in miniature. A sim::Timer is created once with its callback and then
//   armed, moved and cancelled any number of times — the kernel's per-core
//   quantum-boundary timers and housekeeping ticks.
//
// step() fires whichever heap top has the smaller key, so the two heaps
// fire in exactly the order one merged heap would. Every schedule and
// every arm consumes one sequence number, so events due at the same
// instant fire in the order they were scheduled or last armed, and the
// simulation is fully deterministic.
//
// Hot-path design: callbacks (small-buffer-optimized move-only
// util::MoveFunction) live in slab nodes recycled through a free list —
// no shared_ptr control block per event. The heaps hold only
// trivially-copyable entries (time, sequence, node index) packed into one
// 128-bit key, so sift-up/down moves are plain copies instead of
// type-erased callback moves. A fire-once event takes a node when
// scheduled and gives it back when it fires. A timer holds its node (its
// callback and batch cookie) for its whole life, so firing never rebuilds
// or moves its callback.
//
// A timer has at most one heap entry. Timer-heap entries maintain a dense
// node→heap-slot back-pointer array (updated on every timer-heap move,
// the Task::rq_index trick), so re-arming a timer that is already in the
// heap re-keys its entry in place. Moving it *earlier* is an O(log n)
// decrease-key; to the *same* instant the fresh seq grows the key, so it
// sifts down. Moving it *later* is a lazy deferral: the new (deadline,
// seq) pair goes into a dense side array, the entry gets a tag bit and is
// otherwise left alone; when the stale entry reaches the top, step()
// re-arms it with a single push instead of firing. cancel() tags the
// entry too, and the pop discards it; a re-arm before that pop reuses the
// entry. Either way the timer fires with the (when, seq-at-arm-time) key,
// exactly where a fresh event scheduled at arm time would have fired.
//
// Why two heaps: a kernel has a handful of timers that fire and re-arm
// every millisecond or so, among many fire-once events that mostly wait
// far longer (a serving host holds hundreds of sleeping requests). In one
// heap every timer pop sifts through all of them. Split, a timer pop
// sifts through the timers only, the timer heap stores its back-pointer
// on every move unconditionally, and the fire-once heap never stores one.
//
// Timers must not outlive the engine that made them (they hold a raw
// pointer into it) and must not be destroyed from inside their own
// callback; default-constructed timers are inert.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.hpp"
#include "util/move_function.hpp"
#include "util/units.hpp"

namespace pinsim::sim {

class Engine;

/// Always-on event-engine counters. The only counter the fire fast path
/// maintains is `fired` (one register add); the rest increment on cold
/// paths or are derived at read time, so the accounting never shows up
/// in simulation profiles. Per-instance via Engine::stats();
/// process-wide totals via aggregate_engine_stats().
struct EngineStats {
  std::int64_t scheduled = 0;        // fire-once events + fresh timer pushes
  std::int64_t fired = 0;            // callbacks invoked
  std::int64_t tombstone_pops = 0;   // cancelled timer entries popped
  std::int64_t deferred_rearms = 0;  // deferred timer entries re-pushed
  std::int64_t reschedules = 0;      // arms that re-keyed a queued entry
  std::int64_t peak_heap = 0;        // high-water mark of slab nodes
  std::int64_t boundaries_batched = 0;  // same-instant peers drained batched
  std::int64_t boundaries_skipped = 0;  // boundary fires elided by quiet cores
  std::int64_t quiet_windows = 0;       // quiet-core fast-forwards entered

  /// Field-wise sum, peak_heap included: the fold of engines whose heaps
  /// coexist (the shards of one ShardedEngine). The process-wide
  /// aggregate_engine_stats() takes the max of peak_heap instead.
  EngineStats& operator+=(const EngineStats& other) {
    scheduled += other.scheduled;
    fired += other.fired;
    tombstone_pops += other.tombstone_pops;
    deferred_rearms += other.deferred_rearms;
    reschedules += other.reschedules;
    peak_heap += other.peak_heap;
    boundaries_batched += other.boundaries_batched;
    boundaries_skipped += other.boundaries_skipped;
    quiet_windows += other.quiet_windows;
    return *this;
  }
};

/// Process-wide totals across every Engine destroyed so far (each engine
/// folds its counters in on destruction). The figure benches print this
/// under --stats; worker-thread engines accumulate atomically.
EngineStats aggregate_engine_stats();

/// A persistent re-armable event made by Engine::make_timer(). It owns
/// its callback for its whole life; destroying it disarms it and returns
/// its slab node to the engine. Move-only; a default-constructed or
/// moved-from timer is inert (armed() is false, cancel() is a no-op).
class Timer {
 public:
  Timer() = default;
  Timer(Timer&& other) noexcept : engine_(other.engine_), node_(other.node_) {
    other.engine_ = nullptr;
  }
  Timer& operator=(Timer&& other) noexcept;
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer();

  /// Fire at the absolute instant `when` (>= now()), replacing any
  /// earlier arming or cancel. Consumes one sequence number, so the timer
  /// fires after every same-instant event scheduled or armed before it.
  void arm(SimTime when);

  /// Disarm. A no-op when the timer is not armed.
  void cancel();

  /// True from arm() until the timer fires or is cancelled. False inside
  /// the timer's own callback unless the callback re-armed it.
  bool armed() const;

 private:
  friend class Engine;
  Timer(Engine* engine, std::uint32_t node) : engine_(engine), node_(node) {}
  Engine* engine_ = nullptr;
  std::uint32_t node_ = 0;
};

class Engine {
 public:
  using Callback = util::MoveFunction;

  Engine() = default;
  ~Engine();
  // Timers hold raw pointers into the engine, so it must stay put.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  // The schedule and arm paths are defined inline (below the class) so
  // callers in other translation units can collapse the callback's
  // type-erased construction and moves into direct stores into the slab
  // node.

  /// Schedule `fn` to run once, `delay` (>= 0) from now.
  void schedule_detached(SimDuration delay, Callback fn);
  /// Schedule `fn` to run once at the absolute instant `when` (>= now()).
  void schedule_detached_at(SimTime when, Callback fn);

  /// A new timer running `fn` on every fire; it starts disarmed.
  Timer make_timer(Callback fn) { return make_timer(0, std::move(fn)); }

  /// A timer carrying a batch cookie `(domain << 16) | payload`. Cookied
  /// timers are eligible for pop_batched_peer(): when one fires through
  /// the normal step() path, the owner can drain its same-instant domain
  /// peers without paying a callback dispatch each. Domain ids come from
  /// new_batch_domain(); cookie 0 means "not batchable".
  Timer make_timer(std::uint32_t cookie, Callback fn);

  /// Allocate a batch-cookie domain id (16-bit, starts at 1 so the
  /// implicit cookie 0 of un-cookied timers never matches). Several
  /// kernels can share one engine (a fleet); each takes its own domain
  /// so a sweep never drains a foreign kernel's timers.
  std::uint32_t new_batch_domain() {
    PINSIM_CHECK_MSG(next_batch_domain_ < 0xffffu, "batch domains exhausted");
    return next_batch_domain_++;
  }

  /// Batched same-instant drain: if the next event to fire is an
  /// un-deferred timer entry armed at exactly now() whose cookie belongs
  /// to `domain`, pop it without dispatching its callback and return the
  /// cookie's 16-bit payload; otherwise return -1 and leave the heaps
  /// alone (a fire-once event keyed ahead of the timer top fires first,
  /// through step()). Cancelled matching entries are discarded and the
  /// scan continues. Callers loop until -1, handling each payload inline
  /// — one at a time, so a handler that cancels or re-arms a peer's
  /// timer is observed before that peer is popped, exactly like the
  /// one-step()-per-fire path this replaces.
  // pinsim-lint: hot
  int pop_batched_peer(std::uint32_t domain) {
    while (!timers_.empty()) {
      const Entry top = timers_.front();
      if (when_of(top) != now_) return -1;
      if (!events_.empty() && events_.front().key < top.key) return -1;
      if (top.node & kDeferredBit) return -1;
      const std::uint32_t id = top.node & kNodeIdMask;
      const std::uint32_t cookie = cookie_[id];
      if ((cookie >> 16) != domain) return -1;
      pop_min<true>();
      slot_of_[id] = kNotQueued;
      if (top.node & kCancelledBit) {
        ++stats_.tombstone_pops;
        continue;
      }
      // A batched pop is a real fire for accounting purposes — the
      // owner runs the same handler the callback would have run.
      ++stats_.fired;
      ++stats_.boundaries_batched;
      return static_cast<int>(cookie & 0xffffu);
    }
    return -1;
  }

  /// Quiet-core fast-forward accounting (the counters live here so
  /// aggregate_engine_stats() folds them with everything else).
  void note_boundaries_skipped(std::int64_t n) {
    stats_.boundaries_skipped += n;
  }
  void note_quiet_window() { ++stats_.quiet_windows; }

  /// Run until the event queue drains or `horizon` is reached (events at
  /// exactly `horizon` still fire). Returns the number of events fired.
  std::int64_t run(SimTime horizon = kNoHorizon);

  /// Run until `predicate()` becomes true (checked after each event) or
  /// the queue drains. Returns true when the predicate was satisfied.
  /// The predicate is a template parameter so tight measure loops pay a
  /// direct call per event, not type-erased std::function dispatch.
  template <typename Predicate>
  bool run_until(Predicate&& predicate, SimTime horizon = kNoHorizon) {
    if (predicate()) return true;
    while (step(horizon)) {
      if (predicate()) return true;
    }
    return predicate();
  }

  bool empty() const { return timers_.empty() && events_.empty(); }
  std::size_t pending_events() const {
    return timers_.size() + events_.size();
  }

  /// Instant of the earliest pending heap entry of either kind, or
  /// kNoHorizon when both heaps are empty. For a timer entry that was
  /// cancelled or deferred later this reports the stale queued instant —
  /// a lower bound on when anything can actually fire, which is exactly
  /// what the sharded round loop needs for a conservative window.
  SimTime peek_next() const {
    const SimTime t = timers_.empty() ? kNoHorizon : when_of(timers_.front());
    const SimTime e = events_.empty() ? kNoHorizon : when_of(events_.front());
    return t < e ? t : e;
  }

  /// Jump the clock forward to `when` without firing anything. Only
  /// legal when no pending event lies at or before `when` (checked) —
  /// the sharded engine uses this to keep every shard's clock aligned
  /// at a window boundary so cross-shard deliveries are never in a
  /// receiver's past.
  void advance_clock_to(SimTime when) {
    PINSIM_CHECK_MSG(when >= now_, "clock moved backwards (" << when << " < "
                                                             << now_ << ")");
    PINSIM_CHECK_MSG(peek_next() > when,
                     "advance_clock_to(" << when
                                         << ") would skip a pending event at "
                                         << peek_next());
    now_ = when;
  }

  /// Counter snapshot. `scheduled` and `peak_heap` are derived here
  /// rather than maintained per event. Every schedule and every arm
  /// consumes exactly one sequence number, so scheduled = next_seq_ -
  /// reschedules. Every heap entry refers to a distinct live slab node,
  /// and the slab grows only when its free list is empty, so the slab
  /// size is the high-water mark of live nodes: pending fire-once events
  /// plus every live timer, armed or not — an upper bound on the heap
  /// high-water mark.
  EngineStats stats() const {
    EngineStats s = stats_;
    s.scheduled =
        static_cast<std::int64_t>(next_seq_) - stats_.reschedules;
    s.peak_heap = static_cast<std::int64_t>(node_count_);
    return s;
  }

  static constexpr SimTime kNoHorizon = INT64_MAX;

 private:
  friend class Timer;

  /// Deferred re-arm key for a timer whose deadline moved later while its
  /// heap entry stayed queued. Only valid while the entry carries
  /// kDeferredBit; stale contents are harmless once the bit clears.
  struct Deferred {
    SimTime when;
    std::uint64_t seq;
  };

  /// Heap entry: trivially copyable so sift moves are plain copies. The
  /// (when, seq) ordering key is packed into one 128-bit integer so the
  /// comparison is a single sub/sbb with no data-dependent branch — the
  /// min-child selection in pop_min() runs on conditional moves instead
  /// of mispredicting per level. `when` is never negative (the clock
  /// starts at zero and only advances), so the unsigned compare is safe.
  struct Entry {
    unsigned __int128 key;
    /// Node id; a timer-heap entry may carry kDeferredBit and/or
    /// kCancelledBit on top.
    std::uint32_t node;
  };

  /// Tags on a timer-heap Entry::node: the timer's deadline moved later
  /// than the entry's key (the real key is in deferred_), or the timer
  /// was cancelled. Node ids stay far below 2^30 (the slab would exceed
  /// memory long before), so the bits are free.
  static constexpr std::uint32_t kDeferredBit = 0x80000000u;
  static constexpr std::uint32_t kCancelledBit = 0x40000000u;
  static constexpr std::uint32_t kNodeIdMask = kCancelledBit - 1;
  /// slot_of_ value of a timer with no heap entry.
  static constexpr std::uint32_t kNotQueued = UINT32_MAX;

  static unsigned __int128 make_key(SimTime when, std::uint64_t seq) {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(when))
            << 64) |
           seq;
  }
  static SimTime when_of(const Entry& e) {
    return static_cast<SimTime>(static_cast<std::uint64_t>(e.key >> 64));
  }

  /// Fire the next event; returns false when the queue is empty or the
  /// next event lies beyond `horizon`.
  bool step(SimTime horizon);

  /// Slow path for a popped timer entry carrying a tag: discard it if
  /// cancelled, otherwise re-push at its deferred (when, seq). Kept out
  /// of line so step()'s fast path stays small enough to inline well.
  void resolve_tagged(std::uint32_t tagged_node);

  void arm_timer(std::uint32_t id, SimTime when);
  bool timer_armed(std::uint32_t id) const {
    const std::uint32_t slot = slot_of_[id];
    return slot != kNotQueued && !(timers_[slot].node & kCancelledBit);
  }
  void cancel_timer(std::uint32_t id) {
    const std::uint32_t slot = slot_of_[id];
    if (slot != kNotQueued) timers_[slot].node |= kCancelledBit;
  }
  /// Remove the timer's heap entry, if any, and free its node.
  void drop_timer(std::uint32_t id);

  /// The timer heap (kTimer) or the fire-once heap.
  template <bool kTimer>
  std::vector<Entry>& heap() {
    if constexpr (kTimer) {
      return timers_;
    } else {
      return events_;
    }
  }

  /// Store `e` at index `i` of its heap; a timer entry also points its
  /// node back at the slot. The back-pointers live in `slot_of_` — a
  /// dense 4-bytes-per-node array, not the slab nodes.
  template <bool kTimer>
  void put(std::size_t i, const Entry& e) {
    heap<kTimer>()[i] = e;
    if constexpr (kTimer) {
      slot_of_[e.node & kNodeIdMask] = static_cast<std::uint32_t>(i);
    }
  }

  // 4-ary min-heaps: half the depth of a binary heap and the four
  // children share cache lines, so drain-heavy workloads sift faster.
  template <bool kTimer>
  void sift_up(std::size_t i) {
    std::vector<Entry>& h = heap<kTimer>();
    const Entry value = h[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (value.key >= h[parent].key) break;
      put<kTimer>(i, h[parent]);
      i = parent;
    }
    put<kTimer>(i, value);
  }
  /// Timer heap only: same-instant re-arms and drop_timer() use it.
  void sift_down(std::size_t i);
  template <bool kTimer>
  Entry pop_min();

  std::uint32_t acquire_node() {
    if (!free_nodes_.empty()) {
      const std::uint32_t slot = free_nodes_.back();
      free_nodes_.pop_back();
      return slot;
    }
    // grow_slab() is outlined: with the chunk allocation and the two
    // side-array resizes inlined here, acquire_node() exceeds the
    // inliner's budget and turns into an out-of-line call on every
    // schedule — measurably slower than keeping this wrapper tiny.
    if ((node_count_ >> kChunkShift) == chunks_.size()) [[unlikely]] {
      grow_slab();
    }
    return node_count_++;
  }
  void grow_slab();

  // Nodes live in fixed-size chunks so growing the slab never relocates
  // existing nodes — a vector<Callback> would move-construct every live
  // callback on each capacity doubling, which dominated the schedule
  // path's cost, and would move a timer's callback while it runs.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;  // 256
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;
  Callback& node(std::uint32_t i) {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  // 4-ary min-heaps ordered by (when, seq); keys are unique across both.
  std::vector<Entry> timers_;  // timer entries, at most one per timer
  std::vector<Entry> events_;  // fire-once entries
  /// timer node id -> index of its timer-heap entry, or kNotQueued.
  std::vector<std::uint32_t> slot_of_;
  /// timer node id -> deferred re-arm key (valid while the entry is
  /// tagged kDeferredBit).
  std::vector<Deferred> deferred_;
  /// timer node id -> batch cookie (0 = none).
  std::vector<std::uint32_t> cookie_;
  std::uint32_t next_batch_domain_ = 1;
  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::uint32_t node_count_ = 0;
  std::vector<std::uint32_t> free_nodes_;
  EngineStats stats_;
};

inline Timer& Timer::operator=(Timer&& other) noexcept {
  if (this != &other) {
    if (engine_ != nullptr) engine_->drop_timer(node_);
    engine_ = other.engine_;
    node_ = other.node_;
    other.engine_ = nullptr;
  }
  return *this;
}

inline Timer::~Timer() {
  if (engine_ != nullptr) engine_->drop_timer(node_);
}

inline void Timer::arm(SimTime when) {
  PINSIM_CHECK_MSG(engine_ != nullptr, "arm() on an inert timer");
  engine_->arm_timer(node_, when);
}

inline void Timer::cancel() {
  if (engine_ != nullptr) engine_->cancel_timer(node_);
}

inline bool Timer::armed() const {
  return engine_ != nullptr && engine_->timer_armed(node_);
}

inline void Engine::schedule_detached(SimDuration delay, Callback fn) {
  PINSIM_CHECK_MSG(delay >= 0, "event scheduled in the past (delay=" << delay
                                                                     << ")");
  schedule_detached_at(now_ + delay, std::move(fn));
}

inline void Engine::schedule_detached_at(SimTime when, Callback fn) {
  PINSIM_CHECK_MSG(when >= now_,
                   "event scheduled before now (" << when << " < " << now_
                                                  << ")");
  const std::uint32_t slot = acquire_node();
  node(slot) = std::move(fn);
  events_.push_back(Entry{make_key(when, next_seq_++), slot});
  sift_up<false>(events_.size() - 1);
}

inline Timer Engine::make_timer(std::uint32_t cookie, Callback fn) {
  const std::uint32_t id = acquire_node();
  node(id) = std::move(fn);
  cookie_[id] = cookie;
  slot_of_[id] = kNotQueued;
  return Timer(this, id);
}

inline void Engine::arm_timer(std::uint32_t id, SimTime when) {
  PINSIM_CHECK_MSG(when >= now_,
                   "timer armed before now (" << when << " < " << now_
                                              << ")");
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t slot = slot_of_[id];
  if (slot == kNotQueued) {
    timers_.push_back(Entry{make_key(when, seq), id});
    sift_up<true>(timers_.size() - 1);
    return;
  }
  // Still queued (armed, or cancelled and not yet popped): re-key the
  // entry in place, dropping any earlier deferral or cancel tag.
  ++stats_.reschedules;
  Entry& entry = timers_[slot];
  const SimTime queued = when_of(entry);
  if (when > queued) {
    // Later than the entry: defer lazily. step() re-arms with one push
    // when the tagged entry surfaces at `queued`. Repeated deferrals
    // just overwrite the side-array key.
    deferred_[id] = Deferred{when, seq};
    entry.node = id | kDeferredBit;
    return;
  }
  entry.node = id;
  entry.key = make_key(when, seq);
  if (when < queued) {
    sift_up<true>(slot);
  } else {
    sift_down(slot);
  }
}

}  // namespace pinsim::sim
