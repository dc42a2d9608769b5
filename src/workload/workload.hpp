// Workload interface and shared helpers.
//
// A Workload deploys application tasks onto a Platform, drives them to
// completion, and reports the metric the paper plots for it (mean
// execution/response time in seconds). Workloads are written once and run
// unmodified on all seven platform configurations.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "stats/accumulator.hpp"
#include "util/rng.hpp"
#include "virt/platform.hpp"

namespace pinsim::workload {

struct RunResult {
  /// The paper's y-axis value for this run, in seconds (FFmpeg/MPI:
  /// makespan; WordPress/Cassandra: mean per-request response time).
  double metric_seconds = 0.0;
  /// Simulated wall-clock duration of the whole run.
  double wall_seconds = 0.0;
  /// Auxiliary measurements (p99, throughput, overhead counters…).
  std::map<std::string, double> extras;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;

  /// Deploy on `platform`, simulate to completion, return the metric.
  /// Throws InvariantViolation if the run does not complete within the
  /// safety horizon (a wedged simulation must not pass silently).
  virtual RunResult run(virt::Platform& platform, Rng rng) = 0;
};

/// Completion latch: counts task exits and records per-task response
/// times against their arrival instants.
class Completion {
 public:
  explicit Completion(sim::Engine& engine) : engine_(&engine) {}

  /// An on_exit callback that marks one task finished; `arrived` is the
  /// task's arrival time for response-time accounting.
  std::function<void(os::Task&)> tracker(SimTime arrived);

  void expect(int n) { expected_ += n; }
  bool done() const { return finished_ >= expected_; }
  int finished() const { return finished_; }

  /// Response-time distribution in seconds.
  const stats::Accumulator& response() const { return response_; }

 private:
  sim::Engine* engine_;
  int expected_ = 0;
  int finished_ = 0;
  stats::Accumulator response_;
};

/// Run the platform's engine until `completion.done()`; throws if the
/// horizon passes first.
void run_to_completion(virt::Platform& platform, Completion& completion,
                       SimTime horizon, const std::string& what);

}  // namespace pinsim::workload
