#include "workload/request_source.hpp"

#include <algorithm>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "virt/platform.hpp"

namespace pinsim::workload {

namespace {

// --- WordPress -------------------------------------------------------------

/// One served web request: the fig-5 RequestDriver recipe (socket read
/// -> parse -> disk on page-cache miss -> db -> backend wait -> render
/// -> socket write), re-stated here for the serving path so the batch
/// figure's driver stays untouched.
class ServeRequestDriver final : public os::TaskDriver {
 public:
  ServeRequestDriver(const WordPressConfig& config, hw::IoDevice& disk,
                     hw::IoDevice& nic, Rng rng)
      : config_(&config), disk_(&disk), nic_(&nic), rng_(rng) {}

  os::Action next(os::Task&) override {
    switch (stage_++) {
      case 0:  // read the request from the socket
        return os::Action::io(*nic_, hw::IoRequest{hw::IoKind::NetRecv, 2.0});
      case 1:
        return os::Action::compute(jittered(config_->parse_ms));
      case 2:
        if (rng_.chance(config_->page_cache_hit)) {
          ++stage_;  // cache hit: skip the disk read
          return os::Action::compute(jittered(config_->db_ms));
        }
        return os::Action::io(*disk_, hw::IoRequest{hw::IoKind::Read, 16.0});
      case 3:
        return os::Action::compute(jittered(config_->db_ms));
      case 4:  // backend wait: db locks / upstream calls (no CPU)
        return os::Action::sleep_for(jittered(config_->backend_wait_ms));
      case 5:
        return os::Action::compute(jittered(config_->render_ms));
      case 6:
        return os::Action::io(
            *nic_, hw::IoRequest{hw::IoKind::NetSend, config_->response_kb});
      default:
        return os::Action::exit();
    }
  }

 private:
  SimDuration jittered(double ms) {
    const double jitter =
        1.0 + config_->jitter * (2.0 * rng_.next_double() - 1.0);
    return std::max<SimDuration>(msec_f(ms * jitter), 1);
  }

  const WordPressConfig* config_;
  hw::IoDevice* disk_;
  hw::IoDevice* nic_;
  int stage_ = 0;
  Rng rng_;
};

class WordPressSource final : public RequestSource {
 public:
  WordPressSource(virt::Platform& platform, WordPressConfig config, Rng rng)
      : platform_(&platform), config_(std::move(config)), rng_(rng) {}

  const char* name() const override { return "wordpress-serve"; }

  void inject(Done done) override {
    ++outstanding_;
    virt::WorkTaskConfig task_config;
    task_config.name = "req" + std::to_string(next_id_++);
    task_config.working_set_mb = config_.working_set_mb;
    task_config.guest_inflation_sensitivity =
        config_.guest_inflation_sensitivity;
    task_config.network_born = true;
    task_config.on_exit = [this, done = std::move(done)](os::Task&) {
      --outstanding_;
      ++served_;
      if (done) done();
    };
    os::Task& task = platform_->spawn(
        std::move(task_config),
        std::make_unique<ServeRequestDriver>(config_, platform_->disk(),
                                             platform_->nic(), rng_.fork()));
    platform_->start(task);
  }

  int outstanding() const override { return outstanding_; }
  std::int64_t served() const override { return served_; }

 private:
  virt::Platform* platform_;
  WordPressConfig config_;
  Rng rng_;
  std::int64_t next_id_ = 0;
  int outstanding_ = 0;
  std::int64_t served_ = 0;
};

// --- Cassandra -------------------------------------------------------------

/// Completion callbacks queued between inject() and one server thread;
/// the front of the queue belongs to the op the thread is serving (the
/// fig-6 OpQueue pattern, carrying callbacks instead of submit times —
/// latency is the caller's business in the serving split).
struct ServeQueue {
  std::deque<RequestSource::Done> pending;
};

/// One resident server thread: recv an op, execute the fig-6
/// parse/IO/respond recipe, fire the completion callback, loop forever.
class ServeThreadDriver final : public os::TaskDriver {
 public:
  ServeThreadDriver(const CassandraConfig& config, double cache_hit,
                    std::shared_ptr<ServeQueue> queue, hw::IoDevice& disk,
                    Rng rng)
      : config_(&config),
        cache_hit_(cache_hit),
        queue_(std::move(queue)),
        disk_(&disk),
        rng_(rng) {}

  os::Action next(os::Task&) override {
    switch (stage_) {
      case Stage::Idle:
        stage_ = Stage::Parse;
        return os::Action::recv();
      case Stage::Parse: {
        PINSIM_CHECK(!queue_->pending.empty());
        done_ = std::move(queue_->pending.front());
        queue_->pending.pop_front();
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
      case Stage::Finish:
        stage_ = Stage::Record;
        return os::Action::compute(compute_slice(0.4));
      case Stage::Record: {
        if (done_) done_();
        done_ = nullptr;
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
        config_->op_compute_ms * share, config_->op_compute_jitter_ms * share);
    return std::max<SimDuration>(msec_f(ms), 1);
  }

  const CassandraConfig* config_;
  double cache_hit_;
  std::shared_ptr<ServeQueue> queue_;
  hw::IoDevice* disk_;
  Rng rng_;

  Stage stage_ = Stage::Idle;
  bool is_write_ = false;
  RequestSource::Done done_;
};

class CassandraSource final : public RequestSource {
 public:
  CassandraSource(virt::Platform& platform, CassandraConfig config, Rng rng)
      : platform_(&platform), config_(std::move(config)), rng_(rng) {
    // First-order page/row-cache model, as in the fig-6 batch run.
    const double fraction =
        static_cast<double>(platform.spec().instance.memory_gb) /
        config_.dataset_gb;
    const double cache_hit =
        std::min(config_.cache_hit_cap, std::max(0.0, fraction));
    // Spawn the resident server pool. One process, one JVM heap: all
    // threads share a NUMA home.
    auto numa_home = std::make_shared<int>(-1);
    for (int t = 0; t < config_.server_threads; ++t) {
      queues_.push_back(std::make_shared<ServeQueue>());
      virt::WorkTaskConfig task_config;
      task_config.name = "cass-serve" + std::to_string(t);
      task_config.working_set_mb = config_.working_set_mb;
      task_config.numa_home = numa_home;
      task_config.guest_inflation_sensitivity =
          config_.guest_inflation_sensitivity;
      os::Task& task = platform.spawn(
          std::move(task_config),
          std::make_unique<ServeThreadDriver>(config_, cache_hit,
                                              queues_.back(), platform.disk(),
                                              rng_.fork()));
      workers_.push_back(&task);
    }
    for (os::Task* worker : workers_) platform.start(*worker);
  }

  const char* name() const override { return "cassandra-serve"; }

  void inject(Done done) override {
    ++outstanding_;
    const std::size_t target =
        static_cast<std::size_t>(next_id_++) % workers_.size();
    queues_[target]->pending.push_back(
        [this, done = std::move(done)] {
          --outstanding_;
          ++served_;
          if (done) done();
        });
    platform_->post(*workers_[target], 1);
  }

  int outstanding() const override { return outstanding_; }
  std::int64_t served() const override { return served_; }

 private:
  virt::Platform* platform_;
  CassandraConfig config_;
  Rng rng_;
  std::vector<std::shared_ptr<ServeQueue>> queues_;
  std::vector<os::Task*> workers_;
  std::int64_t next_id_ = 0;
  int outstanding_ = 0;
  std::int64_t served_ = 0;
};

}  // namespace

std::unique_ptr<RequestSource> make_wordpress_source(
    virt::Platform& platform, const WordPressConfig& config, Rng rng) {
  return std::make_unique<WordPressSource>(platform, config, rng);
}

std::unique_ptr<RequestSource> make_cassandra_source(
    virt::Platform& platform, const CassandraConfig& config, Rng rng) {
  PINSIM_CHECK_MSG(config.server_threads >= 1,
                   "cassandra serving needs >= 1 server thread");
  return std::make_unique<CassandraSource>(platform, config, rng);
}

std::unique_ptr<RequestSource> make_request_source(AppClass cls,
                                                   virt::Platform& platform,
                                                   Rng rng) {
  switch (cls) {
    case AppClass::IoWeb:
      return make_wordpress_source(platform, WordPressConfig{}, rng);
    case AppClass::IoNoSql:
      return make_cassandra_source(platform, CassandraConfig{}, rng);
    case AppClass::CpuBound:
    case AppClass::Hpc:
      break;
  }
  PINSIM_CHECK_MSG(false, "no request-serving model for this application "
                          "class (batch workloads use Workload::run)");
  return nullptr;
}

}  // namespace pinsim::workload
