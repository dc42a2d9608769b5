#include "workload/mpi.hpp"

#include <memory>
#include <vector>

#include "util/check.hpp"

namespace pinsim::workload {

namespace {

/// Shared rank table so every rank can address its peers.
struct RankTable {
  std::vector<os::TaskRef> ranks;
};

/// One MPI rank. Per iteration:
///   root (rank 0):  compute, gather (recv from every peer), then
///                   broadcast (post to every peer);
///   others:         compute, post partial result to root, wait for the
///                   broadcast.
class RankDriver final : public os::TaskDriver {
 public:
  RankDriver(std::shared_ptr<RankTable> table, int rank, int nranks,
             int iterations, SimDuration compute_per_iter, double jitter,
             Rng rng)
      : table_(std::move(table)),
        rank_(rank),
        nranks_(nranks),
        iterations_(iterations),
        compute_per_iter_(compute_per_iter),
        jitter_(jitter),
        rng_(rng) {}

  os::Action next(os::Task&) override {
    if (iteration_ >= iterations_) return os::Action::exit();
    switch (phase_) {
      case Phase::Compute:
        return next_compute();
      case Phase::Send: {  // non-root: send partial result to root
        phase_ = Phase::WaitBroadcast;
        return os::Action::post(table_->ranks[0].get());
      }
      case Phase::WaitBroadcast: {  // non-root: wait for the broadcast
        advance_iteration();
        return os::Action::recv_spin();
      }
      case Phase::Gather: {  // root: collect nranks-1 partials
        if (peer_ < nranks_) {
          ++peer_;
          return os::Action::recv_spin();
        }
        phase_ = Phase::Broadcast;
        peer_ = 1;
        [[fallthrough]];
      }
      case Phase::Broadcast: {  // root: notify every peer
        if (peer_ < nranks_) {
          os::Task& target =
              table_->ranks[static_cast<std::size_t>(peer_)].get();
          ++peer_;
          return os::Action::post(target);
        }
        advance_iteration();
        return next_action_after_iteration();
      }
    }
    return os::Action::exit();
  }

 private:
  enum class Phase { Compute, Send, WaitBroadcast, Gather, Broadcast };

  void advance_iteration() {
    ++iteration_;
    phase_ = Phase::Compute;
  }
  os::Action next_action_after_iteration() {
    if (iteration_ >= iterations_) return os::Action::exit();
    return next_compute();
  }
  os::Action next_compute() {
    const double jitter = 1.0 + jitter_ * (2.0 * rng_.next_double() - 1.0);
    const auto step = static_cast<SimDuration>(
        static_cast<double>(compute_per_iter_) * jitter);
    phase_ = rank_ == 0 ? Phase::Gather : Phase::Send;
    peer_ = 1;
    return os::Action::compute(std::max<SimDuration>(step, 1));
  }

  std::shared_ptr<RankTable> table_;
  int rank_;
  int nranks_;
  int iterations_;
  SimDuration compute_per_iter_;
  double jitter_;
  Rng rng_;

  Phase phase_ = Phase::Compute;
  int iteration_ = 0;
  int peer_ = 1;
};

RunResult run_mpi(const MpiConfig& config, const std::string& label,
                  virt::Platform& platform, Rng& rng) {
  const int nranks = platform.spec().instance.cores;
  PINSIM_CHECK(nranks >= 1);
  const SimTime start = platform.engine().now();
  Completion completion(platform.engine());

  const auto compute_per_iter = static_cast<SimDuration>(
      sec_f(config.total_compute_seconds) /
      (static_cast<double>(nranks) * config.iterations));

  auto table = std::make_shared<RankTable>();
  for (int rank = 0; rank < nranks; ++rank) {
    // Each rank is a separate process with its own (first-touch) memory;
    // the platform allocates a private NUMA home per rank.
    virt::WorkTaskConfig task_config;
    task_config.name = label + "-rank" + std::to_string(rank);
    task_config.working_set_mb = config.working_set_mb;
    task_config.on_exit = completion.tracker(start);
    completion.expect(1);
    os::Task& task = platform.spawn(
        std::move(task_config),
        std::make_unique<RankDriver>(table, rank, nranks, config.iterations,
                                     compute_per_iter, config.jitter,
                                     rng.fork()));
    table->ranks.emplace_back(task);
  }
  for (const os::TaskRef& rank : table->ranks) platform.start(rank.get());

  run_to_completion(platform, completion, start + config.horizon, label);

  RunResult result;
  result.wall_seconds = to_seconds(platform.engine().now() - start);
  result.metric_seconds = result.wall_seconds;
  result.extras["ranks"] = nranks;
  result.extras["iterations"] = config.iterations;
  return result;
}

}  // namespace

RunResult MpiSearch::run(virt::Platform& platform, Rng rng) {
  return run_mpi(config_, "search", platform, rng);
}

MpiConfig MpiPrime::prime_defaults() {
  MpiConfig config;
  // Prime counting: fewer synchronization rounds, heavier shards.
  config.iterations = 200;
  config.total_compute_seconds = 16.0;
  return config;
}

MpiPrime::MpiPrime(MpiConfig config) : config_(config) {}

RunResult MpiPrime::run(virt::Platform& platform, Rng rng) {
  return run_mpi(config_, "prime", platform, rng);
}

}  // namespace pinsim::workload
