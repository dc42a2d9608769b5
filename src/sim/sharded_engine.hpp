// Sharded discrete-event engine: one simulation, many event heaps.
//
// A ShardedEngine partitions a simulation into `shards` domains, each
// owning a private sim::Engine (heap + clock + sequence space). Shards
// advance in bounded rounds under conservative synchronization: every
// cross-shard interaction must be posted with a delay of at least the
// configured `lookahead` (the smallest latency of any cross-shard
// interaction the simulation makes — cluster::Fleet's dispatch
// latency; never below hw::CostModel::min_cross_shard_latency()), so a
// round may safely advance every shard to
//
//   window = min_s(shard s's next event) + lookahead
//
// without any shard receiving an event in its past. Cross-shard events
// travel through per-(src, dst) mailboxes: post() stamps each entry
// with (when, src_shard, seq) where `seq` is a per-source monotonic
// counter, and the coordinator drains all mailboxes at the window
// boundary in ascending (when, src_shard, seq) order — the canonical
// merge order. Delivery consumes destination sequence numbers in that
// canonical order, so the interleaving of delivered events with the
// destination shard's own same-instant events is a pure function of
// the configuration, never of host-thread timing.
//
// Threading: rounds can fan the advance phase across `threads` workers
// (the calling thread acts as worker 0). Shard state is touched only
// by its assigned worker between two std::barrier phases, and the
// mailbox exchange runs single-threaded on the caller between rounds,
// so results are bit-identical for every `threads` value — determinism
// is by construction, not by accident of scheduling.
//
// shards == 1 is a strict pass-through: run()/run_until() delegate to
// the single Engine with no windows, no barriers, and no mailbox
// machinery, so a one-shard simulation is byte-identical to driving
// the Engine directly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace pinsim::sim {

struct ShardedEngineConfig {
  /// Number of event shards (>= 1).
  int shards = 1;
  /// Conservative lookahead: the minimum delay of every cross-shard
  /// post (checked). Must be > 0 when shards > 1 — a zero lookahead
  /// would make the synchronization window empty.
  SimDuration lookahead = 0;
  /// Executors for the round advance phase, including the calling
  /// thread (>= 1; at most one per shard is used); 1 = fully
  /// single-threaded. The value changes wall-clock behaviour only —
  /// simulated results are bit-identical for every thread count.
  int threads = 1;
};

/// Round-loop counters (the per-shard event counters live in each
/// shard's EngineStats; fold them with ShardedEngine::engine_stats()).
struct ShardedEngineStats {
  std::int64_t rounds = 0;           // synchronization windows advanced
  std::int64_t cross_posts = 0;      // mailbox entries exchanged
  std::int64_t local_posts = 0;      // same-shard posts (direct schedule)
  std::int64_t peak_round_batch = 0; // largest one-round delivery count
};

class ShardedEngine {
 public:
  explicit ShardedEngine(ShardedEngineConfig config);

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int shards() const { return static_cast<int>(engines_.size()); }
  SimDuration lookahead() const { return config_.lookahead; }

  /// The shard's private engine. Domain code (a kernel, a device, a
  /// workload) schedules its intra-shard events here directly.
  Engine& shard(int s) { return *engines_[checked(s)]; }
  const Engine& shard(int s) const { return *engines_[checked(s)]; }

  /// The common round clock: every shard's clock equals this at a
  /// window boundary (between rounds and after run() returns).
  SimTime now() const;

  /// Schedule `fn` on shard `dst`, `delay` from shard `src`'s current
  /// instant. Cross-shard posts (src != dst) require
  /// delay >= lookahead (checked) and are delivered at the next window
  /// boundary in canonical (when, src_shard, seq) order; same-shard
  /// posts schedule directly. Must be called from shard `src`'s
  /// executor (its events' callbacks) — the mailbox rows are
  /// source-owned and unlocked.
  void post(int src, int dst, SimDuration delay, Engine::Callback fn);

  /// Advance all shards until every heap drains or `horizon` is
  /// reached (events at exactly `horizon` still fire). Returns the
  /// number of events fired across all shards.
  std::int64_t run(SimTime horizon = Engine::kNoHorizon);

  /// Advance in rounds until `predicate()` becomes true or every heap
  /// drains. The predicate is evaluated on the calling thread at
  /// window boundaries only (round granularity — coarser than
  /// Engine::run_until's per-event checks), where it may safely read
  /// state owned by any shard. Returns true when the predicate held at
  /// exit.
  bool run_until(const std::function<bool()>& predicate,
                 SimTime horizon = Engine::kNoHorizon);

  /// Fold of every shard's EngineStats — one fold per shard engine, so
  /// totals line up with what a single-engine run of the same
  /// simulation would report.
  EngineStats engine_stats() const;

  /// Round-loop counter snapshot. The post counters are kept per source
  /// shard (each is written only by its shard's executor) and folded
  /// here; call between runs, not from inside event callbacks.
  ShardedEngineStats stats() const;

 private:
  /// One mailbox entry. `seq` is the per-source posting counter; the
  /// (when, src, seq) triple is the canonical merge key, `dst` routes
  /// the delivery once the matrix rows are flattened into one batch.
  struct Post {
    SimTime when;
    int src;
    int dst;
    std::uint64_t seq;
    Engine::Callback fn;
  };

  int checked(int s) const {
    PINSIM_CHECK_MSG(s >= 0 && s < shards(), "shard " << s << " out of range");
    return s;
  }

  /// The round loop behind run()/run_until(). `predicate` may be null.
  std::int64_t run_rounds(SimTime horizon,
                          const std::function<bool()>* predicate,
                          bool* predicate_held);

  /// Advance `engine` through the window ending at `window` and leave
  /// its clock parked exactly at the boundary.
  static std::int64_t advance_shard(Engine& engine, SimTime window);

  /// Drain every mailbox in canonical order into the destination
  /// engines. Single-threaded; called between rounds.
  void exchange();

  ShardedEngineConfig config_;
  std::vector<std::unique_ptr<Engine>> engines_;
  /// Mailbox matrix, row-major by source: outbox_[src * shards + dst].
  /// A row is written only by shard src's executor during the advance
  /// phase and drained only by the coordinator between rounds.
  std::vector<std::vector<Post>> outbox_;
  /// Per-source posting counters (monotonic across the whole run).
  /// Like the mailbox rows, element s is written only by shard s's
  /// executor, so posting needs no locks.
  std::vector<std::uint64_t> post_seq_;
  /// Per-source post tallies, same single-writer discipline as above.
  std::vector<std::int64_t> cross_posts_;
  std::vector<std::int64_t> local_posts_;
  /// Scratch for exchange(): the flattened, canonically sorted batch.
  /// Member so round after round reuses its capacity.
  std::vector<Post> batch_;
  // Coordinator-only round counters.
  std::int64_t rounds_ = 0;
  std::int64_t peak_round_batch_ = 0;
};

}  // namespace pinsim::sim
