#include "probes.hpp"

#include <algorithm>
#include <vector>

#include "cluster/arrivals.hpp"
#include "cluster/load_balancer.hpp"
#include "cluster/slo.hpp"
#include "hw/cpuset.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pinsim;

namespace {

constexpr int kBatches = 5;
constexpr std::int64_t kCalls = 200'000;
/// Length of the pre-drawn input tables (a power of two).
constexpr std::size_t kTable = 4096;

/// Keeps the probed calls' results alive without a cost of its own.
volatile std::uint64_t g_sink = 0;

/// Median over kBatches of `batch()`'s ns per call, `calls` calls each.
template <typename Batch>
double ns_per_call(std::int64_t calls, Batch&& batch) {
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    batch();
    ns.push_back(static_cast<double>(now_ns() - t0) /
                 static_cast<double>(calls));
  }
  return median(std::move(ns));
}

double probe_first_n(int size) {
  const volatile int n_source = size;  // not a compile-time constant
  const int n = n_source;
  return ns_per_call(kCalls, [n] {
    std::uint64_t sink = 0;
    for (std::int64_t i = 0; i < kCalls; ++i) {
      sink += hw::CpuSet::first_n(n).word(1);
    }
    g_sink = g_sink + sink;
  });
}

/// Hold model: every fired event schedules one successor, so the heap
/// stays at its starting size, the workload's peak.
struct Hold {
  sim::Engine* engine = nullptr;
  const std::vector<SimDuration>* delays = nullptr;
  std::size_t next = 0;
  std::int64_t remaining = 0;

  void fire() {
    if (remaining <= 0) return;
    --remaining;
    engine->schedule_detached((*delays)[next++ & (kTable - 1)],
                              [this] { fire(); });
  }
};

double probe_fire(Rng& rng, std::int64_t peak_heap) {
  std::vector<SimDuration> delays(kTable);
  for (SimDuration& d : delays) d = rng.uniform_int(usec(1), usec(1000));
  const std::int64_t heap = std::max<std::int64_t>(peak_heap, 1);
  return ns_per_call(kCalls + heap, [&] {
    sim::Engine engine;
    Hold hold{&engine, &delays, 0, kCalls};
    for (std::int64_t i = 0; i < heap; ++i) {
      const std::size_t slot = static_cast<std::size_t>(i) & (kTable - 1);
      engine.schedule_detached(delays[slot], [&hold] { hold.fire(); });
    }
    g_sink = g_sink + static_cast<std::uint64_t>(engine.run());
  });
}

double probe_pick(Rng& rng, int backends) {
  std::vector<int> completions(kTable);
  for (int& c : completions) {
    c = static_cast<int>(rng.uniform_int(0, backends - 1));
  }
  std::vector<int> initial(static_cast<std::size_t>(backends));
  for (int& o : initial) o = static_cast<int>(rng.uniform_int(0, 8));
  return ns_per_call(kCalls, [&] {
    cluster::LoadBalancer balancer(cluster::BalancerPolicy::LeastOutstanding,
                                   backends);
    for (int b = 0; b < backends; ++b) {
      balancer.add_outstanding(b, initial[static_cast<std::size_t>(b)]);
    }
    std::uint64_t sink = 0;
    for (std::int64_t i = 0; i < kCalls; ++i) {
      const int host = balancer.pick();
      balancer.add_outstanding(host, +1);
      const int done = completions[static_cast<std::size_t>(i) & (kTable - 1)];
      if (balancer.outstanding(done) > 0) balancer.add_outstanding(done, -1);
      sink += static_cast<std::uint64_t>(host);
    }
    g_sink = g_sink + sink;
  });
}

double probe_arrivals(std::uint64_t seed) {
  const cluster::ArrivalConfig config = fleet_config(seed).arrivals;
  return ns_per_call(kCalls, [&] {
    cluster::Arrivals arrivals(config, Rng(seed));
    std::uint64_t sink = 0;
    for (std::int64_t i = 0; i < kCalls; ++i) {
      sink += static_cast<std::uint64_t>(arrivals.next());
    }
    g_sink = g_sink + sink;
  });
}

double probe_slo(Rng& rng, std::uint64_t seed) {
  const cluster::SloConfig config = fleet_config(seed).slo;
  std::vector<double> latencies(kTable);
  for (double& l : latencies) l = rng.exponential(0.05);
  return ns_per_call(kCalls, [&] {
    cluster::SloTracker tracker(config);
    for (std::int64_t i = 0; i < kCalls; ++i) {
      tracker.record(latencies[static_cast<std::size_t>(i) & (kTable - 1)]);
    }
    g_sink = g_sink + static_cast<std::uint64_t>(tracker.summary().violations);
  });
}

}  // namespace

ProbeResults run_probes(std::uint64_t seed, std::int64_t peak_heap,
                        SpanRecorder* spans) {
  ProbeResults out;
  Rng rng(seed ^ 0x70726f6265ull);
  {
    const ScopedSpan span(spans, "probe.hw.first_n");
    for (std::size_t i = 0; i < kFirstNSizes.size(); ++i) {
      out.first_n_ns[i] = probe_first_n(kFirstNSizes[i]);
    }
  }
  {
    const ScopedSpan span(spans, "probe.sim.fire");
    out.fire_ns = probe_fire(rng, peak_heap);
  }
  const int backends = fleet_config(seed).hosts;
  {
    const ScopedSpan span(spans, "probe.cluster.pick");
    out.pick_ns = probe_pick(rng, backends);
  }
  {
    const ScopedSpan span(spans, "probe.cluster.arrivals");
    out.arrival_ns = probe_arrivals(seed);
  }
  {
    const ScopedSpan span(spans, "probe.cluster.slo_record");
    out.slo_record_ns = probe_slo(rng, seed);
  }
  return out;
}

}  // namespace perfbench
