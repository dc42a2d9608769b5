#include "cluster/autoscaler.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pinsim::cluster {

Autoscaler::Autoscaler(AutoscalerConfig config) : config_(config) {
  PINSIM_CHECK(config_.min_instances >= 1);
  PINSIM_CHECK(config_.max_instances >= config_.min_instances);
  PINSIM_CHECK(config_.high_watermark > config_.low_watermark);
  PINSIM_CHECK(config_.low_watermark >= 0.0);
  PINSIM_CHECK(config_.provisioning_delay >= 0);
  PINSIM_CHECK(config_.cooldown >= 0);
  PINSIM_CHECK(config_.step >= 1);
}

int Autoscaler::evaluate(SimTime now, int active, int provisioning,
                         std::int64_t outstanding) {
  PINSIM_CHECK(active >= 0 && provisioning >= 0 && outstanding >= 0);
  const int capacity = active + provisioning;
  // Below the floor: repair immediately, cooldown notwithstanding.
  if (capacity < config_.min_instances) {
    return config_.min_instances - capacity;
  }
  if (scaled_before_ && now - last_scale_ < config_.cooldown) return 0;
  const double per_instance =
      static_cast<double>(outstanding) / static_cast<double>(capacity);
  int delta = 0;
  if (per_instance > config_.high_watermark) {
    delta = std::min(config_.step, config_.max_instances - capacity);
  } else if (per_instance < config_.low_watermark) {
    delta = -std::min(config_.step, capacity - config_.min_instances);
  }
  if (delta != 0) {
    scaled_before_ = true;
    last_scale_ = now;
  }
  return delta;
}

}  // namespace pinsim::cluster
