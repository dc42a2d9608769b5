#include "workload/wordpress.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "workload/request_source.hpp"

namespace pinsim::workload {

namespace {

/// One web request: socket read -> parse -> (disk on page-cache miss) ->
/// db -> render -> socket write -> exit. Three to four IRQs per request.
class RequestDriver final : public os::TaskDriver {
 public:
  RequestDriver(const WordPressConfig& config, hw::IoDevice& disk,
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

/// Spawn and start request `id`'s process now: the one request recipe
/// behind both the Fig. 5 burst and the serving source. `on_exit` runs
/// when the response has been written.
void spawn_request(virt::Platform& platform, const WordPressConfig& config,
                   std::int64_t id, Rng rng,
                   std::function<void(os::Task&)> on_exit) {
  virt::WorkTaskConfig task_config;
  task_config.name = "req" + std::to_string(id);
  task_config.working_set_mb = config.working_set_mb;
  task_config.guest_inflation_sensitivity = config.guest_inflation_sensitivity;
  task_config.network_born = true;
  task_config.on_exit = std::move(on_exit);
  os::Task& task = platform.spawn(
      std::move(task_config),
      std::make_unique<RequestDriver>(config, platform.disk(), platform.nic(),
                                      rng));
  platform.start(task);
}

/// Serving counterpart of the burst: each injected request is one
/// spawn_request, its Rng forked from the source's at inject time.
class WordPressSource final : public RequestSource {
 public:
  WordPressSource(virt::Platform& platform, WordPressConfig config, Rng rng)
      : platform_(&platform), config_(std::move(config)), rng_(rng) {}

  const char* name() const override { return "wordpress-serve"; }

  void inject(Done done) override {
    ++outstanding_;
    spawn_request(*platform_, config_, next_id_++, rng_.fork(),
                  [this, done = std::move(done)](os::Task&) {
                    --outstanding_;
                    ++served_;
                    if (done) done();
                  });
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

}  // namespace

RunResult WordPress::run(virt::Platform& platform, Rng rng) {
  const SimTime start = platform.engine().now();
  Completion completion(platform.engine());
  completion.expect(config_.requests);

  // JMeter fires the burst from a dedicated machine: arrivals are spread
  // over the ramp window; each arrival spawns one request process.
  // Request i's Rng is forked here, in index order between the offset
  // draws, not at its arrival.
  for (int i = 0; i < config_.requests; ++i) {
    const SimDuration offset =
        static_cast<SimDuration>(rng.next_double() * sec_f(config_.ramp_seconds));
    platform.engine().schedule_detached(
        offset, [platform = &platform, config = &config_,
                 latch = &completion, id = i, request_rng = rng.fork()] {
          spawn_request(*platform, *config, id, request_rng,
                        latch->tracker(platform->engine().now()));
        });
  }

  run_to_completion(platform, completion, start + config_.horizon,
                    "wordpress burst");

  RunResult result;
  result.wall_seconds = to_seconds(platform.engine().now() - start);
  result.metric_seconds = completion.response().mean();
  result.extras["p_max"] = completion.response().max();
  result.extras["requests"] = config_.requests;
  return result;
}

std::unique_ptr<RequestSource> make_wordpress_source(
    virt::Platform& platform, const WordPressConfig& config, Rng rng) {
  return std::make_unique<WordPressSource>(platform, config, rng);
}

}  // namespace pinsim::workload
