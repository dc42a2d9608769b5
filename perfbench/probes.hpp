// Layer probes for the traced mode: time single public calls of the
// layers whose cost a whole-run span cannot isolate. Inputs come from
// the run's seed; sizes come from the catalog and the workload's own
// counters (host core counts, the engine's peak heap, the fleet's 50
// backends).
#pragma once

#include <array>
#include <cstdint>

#include "spans.hpp"

namespace perfbench {

/// n of the hw::CpuSet::first_n probes: a 16-core host, the 16xLarge
/// instance's 64 vCPUs, the 112-cpu dell_r830 host.
inline constexpr std::array<int, 3> kFirstNSizes = {16, 64, 112};

struct ProbeResults {
  std::array<double, kFirstNSizes.size()> first_n_ns{};
  /// sim::Engine schedule_detached + fire, with the heap held at the
  /// workload's peak size.
  double fire_ns = 0.0;
  /// cluster::LoadBalancer::pick plus the dispatch/completion
  /// bookkeeping around it, over the fleet's backends.
  double pick_ns = 0.0;
  double arrival_ns = 0.0;     // cluster::Arrivals::next
  double slo_record_ns = 0.0;  // cluster::SloTracker::record
};

ProbeResults run_probes(std::uint64_t seed, std::int64_t peak_heap,
                        SpanRecorder* spans);

}  // namespace perfbench
