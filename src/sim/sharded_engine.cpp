#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <barrier>
#include <exception>
#include <thread>
#include <utility>

namespace pinsim::sim {
namespace {

/// End of the round that starts at `t_min`: t_min + lookahead, capped
/// at `horizon` and saturating just below kNoHorizon so an unbounded
/// run still advances in bounded windows. Capping below t_min +
/// lookahead is always conservative — it can only shrink the window.
SimTime bounded_window(SimTime t_min, SimDuration lookahead, SimTime horizon) {
  const SimTime cap = Engine::kNoHorizon - 1;
  const SimTime window =
      (t_min > cap - lookahead) ? cap : t_min + lookahead;
  return std::min(window, horizon);
}

}  // namespace

ShardedEngine::ShardedEngine(ShardedEngineConfig config) : config_(config) {
  PINSIM_CHECK_MSG(config.shards >= 1,
                   "ShardedEngine needs >= 1 shard (got " << config.shards
                                                          << ")");
  PINSIM_CHECK_MSG(config.shards == 1 || config.lookahead > 0,
                   "multi-shard ShardedEngine needs a positive lookahead");
  PINSIM_CHECK_MSG(config.threads >= 1,
                   "ShardedEngine needs >= 1 thread (got " << config.threads
                                                           << ")");
  const std::size_t n = static_cast<std::size_t>(config.shards);
  engines_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    engines_.push_back(std::make_unique<Engine>());
  }
  outbox_.resize(n * n);
  post_seq_.assign(n, 0);
  cross_posts_.assign(n, 0);
  local_posts_.assign(n, 0);
}

SimTime ShardedEngine::now() const {
  SimTime t = engines_.front()->now();
  for (const auto& engine : engines_) {
    t = std::min(t, engine->now());
  }
  return t;
}

void ShardedEngine::post(int src, int dst, SimDuration delay,
                         Engine::Callback fn) {
  checked(dst);
  const std::size_t s = static_cast<std::size_t>(checked(src));
  Engine& source = *engines_[s];
  if (src == dst) {
    ++local_posts_[s];
    source.schedule_detached(delay, std::move(fn));
    return;
  }
  PINSIM_CHECK_MSG(delay >= config_.lookahead,
                   "cross-shard post below lookahead ("
                       << delay << " < " << config_.lookahead
                       << "): the conservative window would be unsound");
  const SimTime when = source.now() + delay;
  outbox_[s * static_cast<std::size_t>(shards()) +
          static_cast<std::size_t>(dst)]
      .push_back(Post{when, src, dst, post_seq_[s]++, std::move(fn)});
  ++cross_posts_[s];
}

std::int64_t ShardedEngine::advance_shard(Engine& engine, SimTime window) {
  const std::int64_t fired = engine.run(window);
  // run() parks the clock at the horizon only when the heap drained;
  // park it explicitly otherwise so every shard leaves the round at the
  // same instant and the next round's deliveries are never in its past.
  if (engine.now() < window) {
    engine.advance_clock_to(window);
  }
  return fired;
}

void ShardedEngine::exchange() {
  batch_.clear();
  for (std::vector<Post>& box : outbox_) {
    for (Post& post : box) {
      batch_.push_back(std::move(post));
    }
    box.clear();
  }
  if (batch_.empty()) return;
  // Canonical merge order. Keys are unique — `seq` is strictly
  // monotonic per source — so the sort has no equal elements and the
  // delivery order is a pure function of the posts.
  std::sort(batch_.begin(), batch_.end(), [](const Post& a, const Post& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  for (Post& post : batch_) {
    engines_[static_cast<std::size_t>(post.dst)]->schedule_detached_at(
        post.when, std::move(post.fn));
  }
  peak_round_batch_ =
      std::max(peak_round_batch_, static_cast<std::int64_t>(batch_.size()));
  batch_.clear();
}

std::int64_t ShardedEngine::run_rounds(SimTime horizon,
                                       const std::function<bool()>* predicate,
                                       bool* predicate_held) {
  const int n = shards();
  const int workers = std::min(config_.threads, n);

  // Round state shared with the worker pool. The coordinator's writes
  // (window, done) happen-before the workers' reads through the start
  // barrier, and the workers' writes (fired counts, engine state,
  // mailbox rows, errors) happen-before the coordinator's reads through
  // the finish barrier — no atomics, no locks, just two phases.
  SimTime window = 0;
  bool done = false;
  std::vector<std::int64_t> fired_by_shard(static_cast<std::size_t>(n), 0);
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));

  // Shard -> worker assignment is fixed (s % workers) but irrelevant to
  // results: shard state is only touched by one worker per round, and
  // everything cross-shard funnels through the coordinator.
  const auto advance_range = [&](int worker) {
    try {
      for (int s = worker; s < n; s += workers) {
        const std::size_t i = static_cast<std::size_t>(s);
        fired_by_shard[i] += advance_shard(*engines_[i], window);
      }
    } catch (...) {
      errors[static_cast<std::size_t>(worker)] = std::current_exception();
    }
  };

  std::barrier start(workers);
  std::barrier finish(workers);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (;;) {
        start.arrive_and_wait();
        if (done) return;
        advance_range(w);
        finish.arrive_and_wait();
      }
    });
  }
  const auto stop_workers = [&] {
    if (!pool.empty()) {
      done = true;
      start.arrive_and_wait();
      for (std::thread& t : pool) {
        t.join();
      }
      pool.clear();
    }
  };
  const auto park_clocks_at = [&](SimTime when) {
    for (const auto& engine : engines_) {
      if (engine->now() < when) engine->advance_clock_to(when);
    }
  };

  bool held = false;
  try {
    for (;;) {
      if (predicate != nullptr && (*predicate)()) {
        held = true;
        break;
      }
      SimTime t_min = Engine::kNoHorizon;
      for (const auto& engine : engines_) {
        t_min = std::min(t_min, engine->peek_next());
      }
      if (t_min == Engine::kNoHorizon) {
        // Every heap drained and every mailbox was flushed last round:
        // the simulation is over. Match Engine::run()'s bounded-run
        // semantics by parking the clocks at the horizon.
        if (horizon != Engine::kNoHorizon) park_clocks_at(horizon);
        break;
      }
      if (t_min > horizon) {
        park_clocks_at(horizon);
        break;
      }
      window = bounded_window(t_min, config_.lookahead, horizon);
      start.arrive_and_wait();
      advance_range(0);
      finish.arrive_and_wait();
      for (const std::exception_ptr& error : errors) {
        if (error) std::rethrow_exception(error);
      }
      exchange();
      ++rounds_;
    }
  } catch (...) {
    stop_workers();
    throw;
  }
  stop_workers();

  if (predicate_held != nullptr) *predicate_held = held;
  std::int64_t total = 0;
  for (const std::int64_t fired : fired_by_shard) {
    total += fired;
  }
  return total;
}

std::int64_t ShardedEngine::run(SimTime horizon) {
  if (shards() == 1) return engines_.front()->run(horizon);
  return run_rounds(horizon, nullptr, nullptr);
}

bool ShardedEngine::run_until(const std::function<bool()>& predicate,
                              SimTime horizon) {
  PINSIM_CHECK_MSG(predicate != nullptr, "run_until needs a predicate");
  if (shards() == 1) {
    // Strict pass-through: per-event predicate checks, exactly like
    // driving the Engine directly.
    return engines_.front()->run_until(predicate, horizon);
  }
  bool held = false;
  run_rounds(horizon, &predicate, &held);
  return held;
}

EngineStats ShardedEngine::engine_stats() const {
  EngineStats total;
  for (const auto& engine : engines_) total += engine->stats();
  return total;
}

ShardedEngineStats ShardedEngine::stats() const {
  ShardedEngineStats s;
  s.rounds = rounds_;
  s.peak_round_batch = peak_round_batch_;
  for (const std::int64_t c : cross_posts_) {
    s.cross_posts += c;
  }
  for (const std::int64_t c : local_posts_) {
    s.local_posts += c;
  }
  return s;
}

}  // namespace pinsim::sim
