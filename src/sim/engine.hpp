// Discrete-event simulation engine.
//
// A single monotonically advancing clock and two 4-ary min-heaps of
// events keyed by (when, seq): one for re-armable timers, one for
// fire-once events. step() fires whichever top has the smaller key, so
// the two heaps fire in exactly the order one merged heap would. Events
// scheduled at the same instant fire in scheduling order (FIFO by
// sequence number) so the simulation is fully deterministic. Events can
// be cancelled through the returned handle — the kernel uses this to
// retract a core's quantum-expiry event when the core reschedules early.
//
// Hot-path design: each event's callback (a small-buffer-optimized
// move-only util::MoveFunction) and cancellation flag live in a slab
// node recycled through a free list — no shared_ptr control block per
// event. The heaps hold only trivially-copyable entries (time,
// sequence, node index) packed into one 128-bit key, so sift-up/down
// moves are plain copies instead of type-erased callback moves.
// Generation counters on the nodes make stale handles to recycled nodes
// inert. Fire-and-forget call sites use schedule_detached(), which
// skips handle construction.
//
// Timer re-arming is tombstone-free: reschedule() moves a pending
// event's deadline in place. Re-armable events are scheduled through
// schedule_tracked()/schedule_tracked_at() into the timer heap, whose
// entries maintain a dense node→heap-slot back-pointer array (updated
// on every timer-heap move, the Task::rq_index trick) that lets
// reschedule() find the live entry in O(1). Moving a deadline *earlier*
// is then an O(log n) decrease-key on the live entry. Moving it *later*
// is a lazy deferral: the new (deadline, seq) pair goes into a dense
// side array, the live entry gets a tag bit, and the heap entry is
// otherwise left alone; when the stale entry reaches the top, step()
// re-arms it with a single push instead of firing. Either way the event
// keeps the fire-order key (when, seq-at-reschedule-time) that a
// cancel() + fresh schedule() would have produced, so simulations are
// bit-identical to the historical cancel+push pattern — without its
// dead heap entries.
//
// Why two heaps: a kernel has a handful of re-armable timers (per-core
// boundary timers, the housekeeping tick) that fire and re-arm every
// millisecond or so, among many fire-once events that mostly wait far
// longer (a serving host holds hundreds of sleeping requests). In one
// heap every timer pop sifts through all of them, and every heap move
// pays a back-pointer branch that mispredicts as often as timers are
// mixed in. Split, a timer pop sifts through the timers only, the timer
// heap stores its back-pointer on every move unconditionally, and the
// fire-once heap never stores one.
//
// Handles must not outlive the engine that issued them (they hold a raw
// pointer into it); default-constructed handles are inert.
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
  std::int64_t scheduled = 0;        // schedule()/schedule_detached() events
  std::int64_t fired = 0;            // callbacks invoked
  std::int64_t tombstone_pops = 0;   // cancelled entries discarded by pop
  std::int64_t deferred_rearms = 0;  // stale entries re-pushed at new deadline
  std::int64_t reschedules = 0;      // reschedule() calls served in place
  std::int64_t peak_heap = 0;        // high-water mark of pending entries
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

/// Cancellation handle for a scheduled event. Default-constructed handles
/// are inert; cancelling twice is a no-op. Valid only while the issuing
/// Engine is alive.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevent the event from firing. Safe to call after the event fired.
  void cancel();

  /// True when the event is still pending (scheduled, not cancelled, not
  /// yet fired).
  bool pending() const;

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint32_t slot, std::uint64_t gen)
      : engine_(engine), slot_(slot), gen_(gen) {}
  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

class Engine {
 public:
  using Callback = util::MoveFunction;

  Engine() = default;
  ~Engine();
  // EventHandles hold raw pointers into the engine, so it must stay put.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  // The schedule path is defined inline (below the class) so callers in
  // other translation units can collapse the callback's type-erased
  // construction and moves into direct stores into the slab node.

  /// Schedule `fn` to run `delay` from now. `delay` must be >= 0.
  EventHandle schedule(SimDuration delay, Callback fn);

  /// Schedule `fn` at the absolute instant `when` (>= now()).
  EventHandle schedule_at(SimTime when, Callback fn);

  /// Fire-and-forget variants: no cancellation handle returned. Cheaper
  /// than schedule(); use when the caller discards the handle.
  void schedule_detached(SimDuration delay, Callback fn);
  void schedule_detached_at(SimTime when, Callback fn);

  /// Tracked variants: like schedule()/schedule_at(), but the returned
  /// handle additionally supports reschedule(). Use for persistent
  /// re-armable timers; plain schedule() is cheaper for fire-once
  /// events (tracked entries pay a back-pointer store per heap move).
  EventHandle schedule_tracked(SimDuration delay, Callback fn);
  EventHandle schedule_tracked_at(SimTime when, Callback fn);

  /// Tracked schedule carrying a batch cookie `(domain << 16) | payload`.
  /// Cookied entries are eligible for pop_batched_peer(): when one fires
  /// through the normal step() path, the owner can drain its same-instant
  /// domain peers without paying a callback dispatch each. Domain ids
  /// come from new_batch_domain(); cookie 0 means "not batchable" (the
  /// default for the other tracked overloads).
  EventHandle schedule_tracked_at(SimTime when, std::uint32_t cookie,
                                  Callback fn);

  /// Allocate a batch-cookie domain id (16-bit, starts at 1 so the
  /// implicit cookie 0 of un-cookied tracked entries never matches).
  /// Several kernels can share one engine (sharded fleets); each takes
  /// its own domain so a sweep never drains a foreign kernel's timers.
  std::uint32_t new_batch_domain() {
    PINSIM_CHECK_MSG(next_batch_domain_ < 0xffffu, "batch domains exhausted");
    return next_batch_domain_++;
  }

  /// Batched same-instant drain: if the next event to fire is an
  /// un-deferred tracked entry armed at exactly now() whose cookie
  /// belongs to `domain`, pop it without dispatching its callback and
  /// return the cookie's 16-bit payload; otherwise return -1 and leave
  /// the heaps alone (a fire-once event keyed ahead of the timer top
  /// fires first, through step()). Cancelled matching entries are
  /// tombstoned and the scan continues. Callers loop until -1, handling
  /// each payload inline — one at a time, so a handler that cancels or
  /// defers a peer's entry is observed before that peer is popped,
  /// exactly like the one-step()-per-fire path this replaces.
  // pinsim-lint: hot
  int pop_batched_peer(std::uint32_t domain) {
    while (!timers_.empty()) {
      const Entry top = timers_.front();
      if (when_of(top) != now_) return -1;
      if (!events_.empty() && events_.front().key < top.key) return -1;
      if (top.node & kDeferredBit) return -1;
      const std::uint32_t id = top.node;
      const std::uint32_t cookie = cookie_[id];
      if ((cookie >> 16) != domain) return -1;
      pop_min<true>();
      if (node(id).cancelled) {
        ++stats_.tombstone_pops;
        release_node(id);
        continue;
      }
      // A batched pop is a real fire for accounting purposes — the
      // owner runs the same handler the callback would have run.
      ++stats_.fired;
      ++stats_.boundaries_batched;
      release_node(id);
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

  /// Move a pending event's deadline to `when` (>= now()) without
  /// cancelling it — the callback is untouched. The handle must come
  /// from schedule_tracked()/schedule_tracked_at() (checked). Returns
  /// false (and does nothing) when the handle is inert, cancelled, or
  /// already fired; the caller then schedules afresh. Fire order is
  /// exactly what cancel() plus a new schedule_tracked_at() would give:
  /// the event is re-keyed with a fresh sequence number, so among
  /// same-instant events it fires last.
  bool reschedule(EventHandle& handle, SimTime when);

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
  /// kNoHorizon when both heaps are empty. For an entry whose deadline
  /// was deferred later (see reschedule()) this reports the stale armed
  /// instant — a lower bound on when the event can actually fire, which
  /// is exactly what the sharded round loop needs for a conservative
  /// window.
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
  /// rather than maintained per event: every reschedule() and every
  /// schedule consumes exactly one sequence number, so scheduled =
  /// next_seq_ - reschedules; and heap entries map 1:1 onto live slab
  /// nodes (a node is released exactly when its entry pops), so the
  /// slab high-water mark IS the heap high-water mark.
  EngineStats stats() const {
    EngineStats s = stats_;
    s.scheduled =
        static_cast<std::int64_t>(next_seq_) - stats_.reschedules;
    s.peak_heap = static_cast<std::int64_t>(node_count_);
    return s;
  }

  static constexpr SimTime kNoHorizon = INT64_MAX;

 private:
  friend class EventHandle;

  /// Slab node: the event's callback plus cancellation state. The
  /// generation counter distinguishes the current tenant event from
  /// stale handles to earlier tenants of the same node. Deliberately
  /// free of reschedule state: growing the node (~72 bytes, the pop
  /// path's main cache-line traffic) measurably slows every simulation.
  /// `tracked` packs into the tail padding next to `cancelled`.
  struct Node {
    Callback fn;
    std::uint64_t gen = 0;
    bool cancelled = false;
    bool tracked = false;
  };

  /// Deferred re-arm key for a node whose deadline moved later while its
  /// timer-heap entry stayed armed. Only valid while the entry carries
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
    /// Node id, with kDeferredBit tagged in (timer heap only) when the
    /// event's deadline moved later than this entry's key (see
    /// reschedule()).
    std::uint32_t node;
  };

  /// Tag bit on a timer-heap Entry::node whose node has a pending
  /// deferral in deferred_. Node ids stay far below 2^31 (the slab would
  /// exceed memory long before), so the bit is free.
  static constexpr std::uint32_t kDeferredBit = 0x80000000u;
  static constexpr std::uint32_t kNodeIdMask = kDeferredBit - 1;
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

  /// Slow path for a popped entry tagged kDeferredBit: tombstone it if
  /// cancelled, otherwise re-push at its deferred (when, seq). Kept out
  /// of line so step()'s fast path stays small enough to inline well.
  void resolve_tagged(std::uint32_t tagged_node);

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
  /// Timer heap only: reschedule() is the one caller.
  void sift_down(std::size_t i);
  template <bool kTimer>
  Entry pop_min();

  std::uint32_t push_event(SimTime when, Callback&& fn) {
    const std::uint32_t slot = acquire_node();
    node(slot).fn = std::move(fn);
    events_.push_back(Entry{make_key(when, next_seq_++), slot});
    sift_up<false>(events_.size() - 1);
    return slot;
  }
  std::uint32_t push_event_tracked(SimTime when, Callback&& fn,
                                   std::uint32_t cookie = 0) {
    const std::uint32_t slot = acquire_node();
    Node& n = node(slot);
    n.fn = std::move(fn);
    n.tracked = true;
    // Unconditional store: a recycled node may carry a previous tenant's
    // cookie, and pop_batched_peer() must never match a stale one.
    cookie_[slot] = cookie;
    timers_.push_back(Entry{make_key(when, next_seq_++), slot});
    sift_up<true>(timers_.size() - 1);
    return slot;
  }
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
  void release_node(std::uint32_t node);

  // Nodes live in fixed-size chunks so growing the slab never relocates
  // existing nodes — a vector<Node> would move-construct every live
  // callback on each capacity doubling, which dominated the schedule
  // path's cost.
  static constexpr std::uint32_t kChunkShift = 8;  // 256 nodes per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1;
  Node& node(std::uint32_t i) { return chunks_[i >> kChunkShift][i & kChunkMask]; }
  const Node& node(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }

  bool node_pending(std::uint32_t i, std::uint64_t gen) const {
    const Node& n = node(i);
    return n.gen == gen && !n.cancelled;
  }
  void node_cancel(std::uint32_t i, std::uint64_t gen) {
    Node& n = node(i);
    if (n.gen == gen) n.cancelled = true;
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  // 4-ary min-heaps ordered by (when, seq); keys are unique across both.
  std::vector<Entry> timers_;  // tracked (re-armable) entries
  std::vector<Entry> events_;  // fire-once entries
  /// node id -> index of its live timer-heap entry (valid while pending).
  std::vector<std::uint32_t> slot_of_;
  /// node id -> deferred re-arm key (valid while the entry is tagged).
  std::vector<Deferred> deferred_;
  /// node id -> batch cookie, written on every tracked push (0 = none).
  std::vector<std::uint32_t> cookie_;
  std::uint32_t next_batch_domain_ = 1;
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::uint32_t node_count_ = 0;
  std::vector<std::uint32_t> free_nodes_;
  EngineStats stats_;
};

inline void EventHandle::cancel() {
  if (engine_ != nullptr) engine_->node_cancel(slot_, gen_);
}

inline bool EventHandle::pending() const {
  return engine_ != nullptr && engine_->node_pending(slot_, gen_);
}

inline EventHandle Engine::schedule(SimDuration delay, Callback fn) {
  PINSIM_CHECK_MSG(delay >= 0, "event scheduled in the past (delay=" << delay
                                                                     << ")");
  return schedule_at(now_ + delay, std::move(fn));
}

inline EventHandle Engine::schedule_at(SimTime when, Callback fn) {
  PINSIM_CHECK_MSG(when >= now_,
                   "event scheduled before now (" << when << " < " << now_
                                                  << ")");
  const std::uint32_t slot = push_event(when, std::move(fn));
  return EventHandle(this, slot, node(slot).gen);
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
  push_event(when, std::move(fn));
}

inline EventHandle Engine::schedule_tracked(SimDuration delay, Callback fn) {
  PINSIM_CHECK_MSG(delay >= 0, "event scheduled in the past (delay=" << delay
                                                                     << ")");
  return schedule_tracked_at(now_ + delay, std::move(fn));
}

inline EventHandle Engine::schedule_tracked_at(SimTime when, Callback fn) {
  PINSIM_CHECK_MSG(when >= now_,
                   "event scheduled before now (" << when << " < " << now_
                                                  << ")");
  const std::uint32_t slot = push_event_tracked(when, std::move(fn));
  return EventHandle(this, slot, node(slot).gen);
}

inline EventHandle Engine::schedule_tracked_at(SimTime when,
                                               std::uint32_t cookie,
                                               Callback fn) {
  PINSIM_CHECK_MSG(when >= now_,
                   "event scheduled before now (" << when << " < " << now_
                                                  << ")");
  const std::uint32_t slot = push_event_tracked(when, std::move(fn), cookie);
  return EventHandle(this, slot, node(slot).gen);
}

inline bool Engine::reschedule(EventHandle& handle, SimTime when) {
  if (handle.engine_ != this) return false;  // inert or foreign handle
  Node& n = node(handle.slot_);
  if (n.gen != handle.gen_ || n.cancelled) return false;
  PINSIM_CHECK_MSG(n.tracked,
                   "reschedule() on an untracked event; use "
                   "schedule_tracked()/schedule_tracked_at()");
  PINSIM_CHECK_MSG(when >= now_,
                   "event rescheduled before now (" << when << " < " << now_
                                                    << ")");
  // One sequence number per re-arm, exactly like the cancel+push pattern
  // this replaces — so every other event's seq (and thus every FIFO
  // tie-break) is unchanged.
  const std::uint64_t seq = next_seq_++;
  ++stats_.reschedules;
  const std::uint32_t slot = slot_of_[handle.slot_];
  const SimTime armed = when_of(timers_[slot]);
  if (when > armed) {
    // Later than the live entry: defer lazily. step() re-arms with one
    // push when the tagged entry surfaces at `armed`. Repeated
    // deferrals just overwrite the side-array key.
    deferred_[handle.slot_] = Deferred{when, seq};
    timers_[slot].node = handle.slot_ | kDeferredBit;
    return true;
  }
  // At or before the live entry: re-key in place (clearing any deferral
  // tag from an earlier move). Equal-time re-arms still grow the key
  // (fresh seq), so they sift down, never up.
  timers_[slot].node = handle.slot_;
  const bool earlier = when < armed;
  timers_[slot].key = make_key(when, seq);
  if (earlier) {
    sift_up<true>(slot);
  } else {
    sift_down(slot);
  }
  return true;
}

}  // namespace pinsim::sim
