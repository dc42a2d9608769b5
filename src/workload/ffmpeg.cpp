#include "workload/ffmpeg.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "util/check.hpp"

namespace pinsim::workload {

namespace {

/// Encoder thread: waits for the coordinator's start signal (codec
/// init done), burns its share of the parallel encode in jittered
/// chunks, then reports back and exits.
class EncoderDriver final : public os::TaskDriver {
 public:
  EncoderDriver(SimDuration total, SimDuration chunk, double jitter,
                os::TaskRef coordinator, Rng rng)
      : remaining_(total),
        chunk_(chunk),
        jitter_(jitter),
        coordinator_(coordinator),
        rng_(rng) {}

  os::Action next(os::Task&) override {
    if (remaining_ > 0) {
      const double jitter = 1.0 + jitter_ * (2.0 * rng_.next_double() - 1.0);
      SimDuration step = static_cast<SimDuration>(
          static_cast<double>(chunk_) * jitter);
      step = std::clamp<SimDuration>(step, 1, remaining_);
      remaining_ -= step;
      return os::Action::compute(step);
    }
    if (!reported_) {
      reported_ = true;
      return os::Action::post(coordinator_.get());
    }
    return os::Action::exit();
  }

 private:
  SimDuration remaining_;
  SimDuration chunk_;
  double jitter_;
  os::TaskRef coordinator_;
  bool reported_ = false;
  Rng rng_;
};

/// Coordinator thread: demux/probe/codec-init startup (overlapping the
/// first encode batches), then waits for the encoders and performs the
/// serial bitstream finalization (mux flush) that cannot overlap the
/// encode — the non-parallelizable tail that caps FFmpeg's scaling.
class CoordinatorDriver final : public os::TaskDriver {
 public:
  CoordinatorDriver(SimDuration startup, SimDuration serial,
                    SimDuration chunk, int encoders)
      : startup_(startup),
        remaining_(serial),
        chunk_(chunk),
        waits_(encoders) {}

  os::Action next(os::Task&) override {
    if (startup_ > 0) {
      const SimDuration step = std::min(chunk_, startup_);
      startup_ -= step;
      return os::Action::compute(step);
    }
    if (waits_ > 0) {
      --waits_;
      return os::Action::recv();
    }
    if (remaining_ > 0) {
      const SimDuration step = std::min(chunk_, remaining_);
      remaining_ -= step;
      return os::Action::compute(step);
    }
    return os::Action::exit();
  }

 private:
  SimDuration startup_;
  SimDuration remaining_;
  SimDuration chunk_;
  int waits_;
};

}  // namespace

int Ffmpeg::threads_on(const virt::Platform& platform) const {
  return std::clamp(platform.visible_cpus(), 1, config_.max_threads);
}

RunResult Ffmpeg::run(virt::Platform& platform, Rng rng) {
  PINSIM_CHECK(config_.processes >= 1);
  const SimTime start = platform.engine().now();
  Completion completion(platform.engine());

  // Short clips cannot be parallelized as widely (fewer frames in
  // flight): ~1 extra encoder thread per 3 seconds of source.
  const double file_seconds =
      config_.source_seconds / static_cast<double>(config_.processes);
  const int threads =
      std::min(threads_on(platform),
               2 + static_cast<int>(file_seconds / 3.0));
  const double per_process = 1.0 / static_cast<double>(config_.processes);
  const SimDuration startup = sec_f(config_.startup_seconds);
  const SimDuration serial =
      sec_f(config_.serial_seconds * per_process);
  const SimDuration parallel_share = sec_f(
      config_.parallel_seconds * per_process / static_cast<double>(threads));
  const SimDuration chunk = msec_f(config_.chunk_ms);
  const double worker_ws = std::max(
      6.0, config_.working_set_mb / static_cast<double>(threads));

  std::vector<os::Task*> to_start;

  for (int p = 0; p < config_.processes; ++p) {
    // All threads of one transcode share frame buffers: one NUMA home.
    auto numa_home = std::make_shared<int>(-1);

    virt::WorkTaskConfig coord_config;
    coord_config.name = "ffmpeg" + std::to_string(p) + "-mux";
    coord_config.working_set_mb = 10.0;
    coord_config.numa_home = numa_home;
    coord_config.on_exit = completion.tracker(start);
    completion.expect(1);
    os::Task& coordinator = platform.spawn(
        std::move(coord_config),
        std::make_unique<CoordinatorDriver>(startup, serial, chunk,
                                            threads));
    to_start.push_back(&coordinator);

    for (int t = 0; t < threads; ++t) {
      virt::WorkTaskConfig config;
      config.name =
          "ffmpeg" + std::to_string(p) + "-enc" + std::to_string(t);
      config.working_set_mb = worker_ws;
      config.numa_home = numa_home;
      config.on_exit = completion.tracker(start);
      completion.expect(1);
      os::Task& worker = platform.spawn(
          std::move(config),
          std::make_unique<EncoderDriver>(parallel_share, chunk,
                                          config_.jitter,
                                          os::TaskRef(coordinator),
                                          rng.fork()));
      to_start.push_back(&worker);
    }
  }
  for (os::Task* task : to_start) platform.start(*task);

  run_to_completion(platform, completion, start + config_.horizon,
                    "ffmpeg transcode");

  RunResult result;
  result.wall_seconds = to_seconds(platform.engine().now() - start);
  // The paper reports the mean execution time of the transcode
  // process(es); for one process this is the makespan.
  result.metric_seconds = result.wall_seconds;
  result.extras["threads"] = threads;
  result.extras["processes"] = config_.processes;
  return result;
}

}  // namespace pinsim::workload
