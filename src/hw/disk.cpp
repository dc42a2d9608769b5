#include "hw/disk.hpp"

#include <utility>

#include "util/check.hpp"

namespace pinsim::hw {

const char* to_string(IoKind kind) {
  switch (kind) {
    case IoKind::Read:
      return "read";
    case IoKind::Write:
      return "write";
    case IoKind::NetRecv:
      return "net-recv";
    case IoKind::NetSend:
      return "net-send";
  }
  return "unknown";
}

IoDevice::IoDevice(sim::Engine& engine, std::string name, Config config,
                   Rng rng)
    : engine_(&engine),
      name_(std::move(name)),
      config_(config),
      rng_(rng) {
  PINSIM_CHECK(config.channels >= 1);
  PINSIM_CHECK(config.read_mean > 0 && config.write_mean > 0);
}

IoDevice IoDevice::raid1_hdd(sim::Engine& engine, Rng rng) {
  Config config;
  config.channels = 2;
  config.read_mean = msec(6);
  config.read_stddev = msec(3);
  config.write_mean = msec(8);
  config.write_stddev = msec(4);
  config.per_kb = usec(8);
  return IoDevice(engine, "raid1-hdd", config, rng);
}

IoDevice IoDevice::gigabit_nic(sim::Engine& engine, Rng rng) {
  Config config;
  config.channels = 64;
  config.read_mean = usec(250);
  config.read_stddev = usec(120);
  config.write_mean = usec(250);
  config.write_stddev = usec(120);
  config.per_kb = usec(8);
  return IoDevice(engine, "gigabit-nic", config, rng);
}

SimDuration IoDevice::sample_service(const IoRequest& request) {
  const bool write_like =
      request.kind == IoKind::Write || request.kind == IoKind::NetSend;
  const double mean = static_cast<double>(write_like ? config_.write_mean
                                                     : config_.read_mean);
  const double stddev = static_cast<double>(
      write_like ? config_.write_stddev : config_.read_stddev);
  const double base = rng_.lognormal_from_moments(mean, stddev);
  const double transfer =
      request.size_kb * static_cast<double>(config_.per_kb);
  return static_cast<SimDuration>(base + transfer);
}

void IoDevice::submit(const IoRequest& request,
                      std::function<void()> on_complete,
                      SimDuration extra_latency) {
  PINSIM_CHECK(extra_latency >= 0);
  Pending pending{request, std::move(on_complete), extra_latency,
                  engine_->now()};
  if (busy_ < config_.channels) {
    start(std::move(pending));
    return;
  }
  // A full vector whose front half is consumed slides its live entries
  // down instead of growing, so the capacity follows the deepest
  // backlog and a steady backlog allocates nothing.
  if (backlog_.size() == backlog_.capacity() &&
      2 * backlog_head_ >= backlog_.size()) {
    backlog_.erase(backlog_.begin(),
                   backlog_.begin() +
                       static_cast<std::ptrdiff_t>(backlog_head_));
    backlog_head_ = 0;
  }
  backlog_.push_back(std::move(pending));
}

void IoDevice::start(Pending pending) {
  ++busy_;
  const SimDuration service =
      sample_service(pending.request) + pending.extra_latency;
  // The completion keeps only what it needs (this, the callback and the
  // submit instant: 48 B), so it fits util::MoveFunction's inline
  // buffer and a completion allocates nothing.
  engine_->schedule_detached(
      service, [this, on_complete = std::move(pending.on_complete),
                submitted = pending.submitted] {
        ++completed_;
        latency_.add(to_seconds(engine_->now() - submitted));
        if (on_complete) on_complete();
        --busy_;
        if (backlog_head_ < backlog_.size()) {
          Pending next = std::move(backlog_[backlog_head_++]);
          if (backlog_head_ == backlog_.size()) {
            backlog_.clear();
            backlog_head_ = 0;
          }
          start(std::move(next));
        }
      });
}

}  // namespace pinsim::hw
