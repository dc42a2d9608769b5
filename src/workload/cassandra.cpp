#include "workload/cassandra.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "workload/request_source.hpp"

namespace pinsim::workload {

namespace {

using OpDone = std::function<void()>;

/// One server thread: waits for an op, executes its compute/IO recipe,
/// runs the op's completion callback, and exits after serving its share.
class ServerThreadDriver final : public os::TaskDriver {
 public:
  ServerThreadDriver(const CassandraConfig& config, double cache_hit,
                     std::int64_t share, hw::IoDevice& disk, Rng rng)
      : config_(&config),
        cache_hit_(cache_hit),
        share_(share),
        disk_(&disk),
        rng_(rng) {}

  /// Queue one op; the thread must also be woken (Platform::post).
  void enqueue(OpDone done) { pending_.push_back(std::move(done)); }

  os::Action next(os::Task&) override {
    switch (stage_) {
      case Stage::Idle: {
        if (served_ >= share_) return os::Action::exit();
        stage_ = Stage::Parse;
        return os::Action::recv();
      }
      case Stage::Parse: {
        // The op is now in hand; the front of the queue is its callback.
        PINSIM_CHECK(!pending_.empty());
        done_ = std::move(pending_.front());
        pending_.pop_front();
        is_write_ = rng_.chance(config_->write_fraction);
        stage_ = Stage::MaybeIo;
        return os::Action::compute(compute_slice(0.6));
      }
      case Stage::MaybeIo: {
        stage_ = Stage::Finish;
        if (is_write_) {
          // Commit-log append (the write path always touches the log).
          return os::Action::io(
              *disk_, hw::IoRequest{hw::IoKind::Write, config_->commitlog_kb});
        }
        if (!rng_.chance(cache_hit_)) {
          return os::Action::io(
              *disk_, hw::IoRequest{hw::IoKind::Read, config_->read_kb});
        }
        // Cache hit: straight to the response.
        return os::Action::compute(compute_slice(0.4));
      }
      case Stage::Finish: {
        stage_ = Stage::Record;
        return os::Action::compute(compute_slice(0.4));
      }
      case Stage::Record: {
        done_();
        done_ = nullptr;
        ++served_;
        stage_ = Stage::Idle;
        // Loop back without a scheduling artifact.
        return os::Action::compute(0);
      }
    }
    return os::Action::exit();
  }

 private:
  enum class Stage { Idle, Parse, MaybeIo, Finish, Record };

  SimDuration compute_slice(double share) {
    const double ms = rng_.lognormal_from_moments(
        config_->op_compute_ms * share,
        config_->op_compute_jitter_ms * share);
    return std::max<SimDuration>(msec_f(ms), 1);
  }

  const CassandraConfig* config_;
  double cache_hit_;
  std::int64_t share_;
  hw::IoDevice* disk_;
  Rng rng_;
  std::deque<OpDone> pending_;

  Stage stage_ = Stage::Idle;
  bool is_write_ = false;
  OpDone done_;
  std::int64_t served_ = 0;
};

/// The server process: `server_threads` resident threads sharing one
/// NUMA home (one JVM heap), spawned in thread order with one
/// `rng.fork()` each and started together. With `operations`, thread t
/// serves its split of them (operations / threads, the first
/// operations % threads one more) and exits; without, it serves
/// forever.
class ServerPool {
 public:
  ServerPool(virt::Platform& platform, const CassandraConfig& config,
             Rng& rng, std::optional<int> operations,
             const std::function<void(os::Task&)>& on_exit = nullptr)
      : platform_(&platform) {
    PINSIM_CHECK_MSG(config.server_threads >= 1,
                     "cassandra needs >= 1 server thread (got "
                         << config.server_threads << ")");
    // First-order page/row-cache model: the read hit ratio is the
    // cached fraction of the hot set.
    const double fraction =
        static_cast<double>(platform.spec().instance.memory_gb) /
        config.dataset_gb;
    const double cache_hit =
        std::min(config.cache_hit_cap, std::max(0.0, fraction));
    auto numa_home = std::make_shared<int>(-1);
    const int threads = config.server_threads;
    for (int t = 0; t < threads; ++t) {
      const std::int64_t share =
          operations ? *operations / threads +
                           (t < *operations % threads ? 1 : 0)
                     : std::numeric_limits<std::int64_t>::max();
      virt::WorkTaskConfig task_config;
      task_config.name = "cass-worker" + std::to_string(t);
      task_config.working_set_mb = config.working_set_mb;
      task_config.numa_home = numa_home;
      task_config.guest_inflation_sensitivity =
          config.guest_inflation_sensitivity;
      task_config.on_exit = on_exit;
      auto driver = std::make_unique<ServerThreadDriver>(
          config, cache_hit, share, platform.disk(), rng.fork());
      drivers_.push_back(driver.get());
      threads_.emplace_back(
          platform.spawn(std::move(task_config), std::move(driver)));
    }
    for (const os::TaskRef& thread : threads_) platform.start(thread.get());
  }

  // Submit callbacks hold the pool's address.
  ServerPool(const ServerPool&) = delete;
  ServerPool& operator=(const ServerPool&) = delete;

  std::size_t size() const { return threads_.size(); }

  /// Hand thread `target` one op now; `done` runs when its response is
  /// sent. The thread must not have finished (the TaskRef checks).
  void submit(std::size_t target, OpDone done) {
    os::Task& thread = threads_[target].get();
    drivers_[target]->enqueue(std::move(done));
    platform_->post(thread, 1);
  }

 private:
  virt::Platform* platform_;
  // Owned by their tasks, which destroy them when they finish: valid
  // only while threads_[i] has not finished (submit checks).
  std::vector<ServerThreadDriver*> drivers_;
  std::vector<os::TaskRef> threads_;
};

/// Serving counterpart of the stress run: the same pool with no op
/// budget, each injected op round-robined in firing order.
class CassandraSource final : public RequestSource {
 public:
  CassandraSource(virt::Platform& platform, CassandraConfig config, Rng rng)
      : config_(std::move(config)),
        pool_(platform, config_, rng, std::nullopt) {}

  const char* name() const override { return "cassandra-serve"; }

  void inject(Done done) override {
    ++outstanding_;
    pool_.submit(static_cast<std::size_t>(next_id_++) % pool_.size(),
                 [this, done = std::move(done)] {
                   --outstanding_;
                   ++served_;
                   if (done) done();
                 });
  }

  int outstanding() const override { return outstanding_; }
  std::int64_t served() const override { return served_; }

 private:
  CassandraConfig config_;  // read by the pool's drivers
  ServerPool pool_;
  std::int64_t next_id_ = 0;
  int outstanding_ = 0;
  std::int64_t served_ = 0;
};

}  // namespace

RunResult Cassandra::run(virt::Platform& platform, Rng rng) {
  const SimTime start = platform.engine().now();
  Completion completion(platform.engine());
  stats::Accumulator responses;

  // The run completes when every thread has served its share and exited.
  ServerPool pool(platform, config_, rng, config_.operations,
                  completion.tracker(start));
  completion.expect(config_.server_threads);

  // cassandra-stress: 1,000 ops within one second, round-robin over the
  // "user" threads (each stress thread drives one connection) by op
  // index, not by firing order.
  for (int op = 0; op < config_.operations; ++op) {
    const auto offset = static_cast<SimDuration>(
        rng.next_double() * sec_f(config_.submit_seconds));
    const auto target = static_cast<std::size_t>(op % config_.server_threads);
    platform.engine().schedule_detached(
        offset, [pool = &pool, target, responses = &responses,
                 engine = &platform.engine()] {
          pool->submit(target, [responses, engine,
                                submitted = engine->now()] {
            responses->add(to_seconds(engine->now() - submitted));
          });
        });
  }

  run_to_completion(platform, completion, start + config_.horizon,
                    "cassandra stress");

  RunResult result;
  result.wall_seconds = to_seconds(platform.engine().now() - start);
  result.metric_seconds = responses.mean();
  result.extras["ops"] = responses.count();
  result.extras["max_response"] = responses.max();
  return result;
}

std::unique_ptr<RequestSource> make_cassandra_source(
    virt::Platform& platform, const CassandraConfig& config, Rng rng) {
  return std::make_unique<CassandraSource>(platform, config, rng);
}

}  // namespace pinsim::workload
