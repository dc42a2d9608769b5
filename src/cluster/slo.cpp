#include "cluster/slo.hpp"

#include "util/check.hpp"

namespace pinsim::cluster {

SloTracker::SloTracker(SloConfig config)
    : config_(config), histogram_(kSloBucketSeconds, kSloMaxBuckets) {
  PINSIM_CHECK(config_.target_seconds > 0.0);
}

void SloTracker::record(double latency_seconds) {
  PINSIM_CHECK(latency_seconds >= 0.0);
  histogram_.add(latency_seconds);
  moments_.add(latency_seconds);
  if (latency_seconds > config_.target_seconds) ++violations_;
}

SloSummary SloTracker::summary() const {
  SloSummary out;
  out.total = histogram_.count();
  if (out.total == 0) return out;
  out.violations = violations_;
  out.violation_fraction =
      static_cast<double>(violations_) / static_cast<double>(out.total);
  out.p50_seconds = histogram_.quantile(0.50);
  out.p99_seconds = histogram_.quantile(0.99);
  out.p999_seconds = histogram_.quantile(0.999);
  out.mean_seconds = moments_.mean();
  out.max_seconds = moments_.max();
  return out;
}

}  // namespace pinsim::cluster
