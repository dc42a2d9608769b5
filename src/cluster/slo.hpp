// Tail-latency SLO accounting for the cluster serving layer.
//
// Per-request latencies land in a stats::LinearHistogram (p50/p99/p999
// by interpolated bucket walk) plus a stats::Accumulator for exact
// moments; violations are counted sample-exactly against the configured
// objective. The tracker is fed in request-id order after a fleet run
// completes, never online from event callbacks, so its summary is
// byte-identical across thread and shard counts (floating-point
// accumulation order is fixed by construction).
#pragma once

#include <cstddef>
#include <cstdint>

#include "stats/accumulator.hpp"
#include "stats/histogram.hpp"

namespace pinsim::cluster {

/// Histogram resolution backing the percentile estimates: samples at
/// or above kSloBucketSeconds * kSloMaxBuckets (20 s) clamp into the
/// last bucket.
inline constexpr double kSloBucketSeconds = 0.001;
inline constexpr std::size_t kSloMaxBuckets = 20000;

struct SloConfig {
  /// Per-request latency objective.
  double target_seconds = 0.5;
};

struct SloSummary {
  std::int64_t total = 0;
  std::int64_t violations = 0;
  double violation_fraction = 0.0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double p999_seconds = 0.0;
  double mean_seconds = 0.0;
  double max_seconds = 0.0;
};

// Front-end state: shard-0-owned (see LoadBalancer).
class SloTracker {
 public:
  explicit SloTracker(SloConfig config);

  void record(double latency_seconds);

  /// Zero-filled when no samples were recorded.
  SloSummary summary() const;

  const SloConfig& config() const { return config_; }
  const stats::LinearHistogram& histogram() const { return histogram_; }

 private:
  SloConfig config_;
  stats::LinearHistogram histogram_;
  stats::Accumulator moments_;
  std::int64_t violations_ = 0;
};

}  // namespace pinsim::cluster
