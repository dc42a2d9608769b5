#include "cluster/fleet.hpp"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

#include "core/chr_advisor.hpp"
#include "util/check.hpp"
#include "virt/platform.hpp"
#include "workload/request_source.hpp"

namespace pinsim::cluster {

namespace {

std::unique_ptr<workload::RequestSource> make_source(const FleetConfig& config,
                                                     virt::Platform& platform,
                                                     Rng rng) {
  if (config.app == workload::AppClass::IoWeb) {
    return workload::make_wordpress_source(platform,
                                           workload::WordPressConfig{}, rng);
  }
  return workload::make_cassandra_source(platform, config.cassandra, rng);
}

}  // namespace

const char* to_string(PinningPolicy policy) {
  switch (policy) {
    case PinningPolicy::AsConfigured:
      return "as-configured";
    case PinningPolicy::ChrAdvisor:
      return "chr-advisor";
  }
  return "?";
}

Fleet::Fleet(FleetConfig config) : config_(std::move(config)) {
  PINSIM_CHECK_MSG(config_.hosts >= 1,
                   "fleet needs >= 1 host (got " << config_.hosts << ")");
  PINSIM_CHECK_MSG(config_.shards >= 1,
                   "fleet needs >= 1 shard (got " << config_.shards << ")");
  PINSIM_CHECK_MSG(config_.threads >= 1,
                   "fleet needs >= 1 thread (got " << config_.threads << ")");
  PINSIM_CHECK_MSG(config_.traffic_seconds > 0.0,
                   "traffic window must be positive");
  PINSIM_CHECK_MSG(config_.drain_seconds > 0.0,
                   "drain window must be positive");
  PINSIM_CHECK_MSG(config_.app == workload::AppClass::IoWeb ||
                       config_.app == workload::AppClass::IoNoSql,
                   "the serving layer models the paper's request-serving "
                   "applications (IoWeb -> WordPress, IoNoSql -> Cassandra)");
  PINSIM_CHECK_MSG(config_.autoscaler.min_instances <= config_.hosts,
                   "autoscaler floor exceeds the fleet size");
  config_.autoscaler.max_instances =
      std::min(config_.autoscaler.max_instances, config_.hosts);
  host_shard_.reserve(static_cast<std::size_t>(config_.hosts));
  for (int h = 0; h < config_.hosts; ++h) {
    host_shard_.push_back(h % config_.shards);
  }
}

int Fleet::shard_of(int host) const {
  PINSIM_CHECK_MSG(host >= 0 && host < config_.hosts,
                   "host " << host << " out of range");
  return host_shard_[static_cast<std::size_t>(host)];
}

virt::PlatformSpec Fleet::resolved_spec() const {
  virt::PlatformSpec spec = config_.spec;
  if (config_.pinning == PinningPolicy::ChrAdvisor) {
    std::optional<virt::InstanceType> advised =
        core::recommend_instance(config_.app, config_.full_host);
    spec.instance = advised ? *advised
                            : virt::largest_instance_within(
                                  config_.full_host.num_cpus());
    spec.mode = virt::CpuMode::Pinned;
  }
  return spec;
}

int Fleet::initial_active() const {
  if (config_.autoscale) {
    return std::min(config_.autoscaler.min_instances, config_.hosts);
  }
  return config_.hosts;
}

ClusterResult Fleet::run() {
  const int n = config_.hosts;
  const SimDuration min_latency = config_.costs.min_cross_shard_latency();
  PINSIM_CHECK_MSG(kDispatchLatency >= min_latency,
                   "dispatch latency " << kDispatchLatency
                                       << " below the cross-shard floor "
                                       << min_latency);

  // Both cross-shard legs (dispatch and completion) carry
  // kDispatchLatency, so that is the lookahead the round loop may use.
  sim::ShardedEngine sharded(sim::ShardedEngineConfig{
      config_.shards, kDispatchLatency, config_.threads});

  // Host h runs with repetition h's seed, so it matches a solo-engine
  // run of the same spec. Construction is interleaved per host: host
  // h's initial kernel events and its source's keep their relative
  // order whichever hosts share its shard.
  const virt::PlatformSpec spec = resolved_spec();
  const hw::Topology topology =
      virt::host_topology_for(spec, config_.full_host);
  std::vector<std::unique_ptr<virt::Host>> hosts;
  std::vector<std::unique_ptr<virt::Platform>> platforms;
  std::vector<std::unique_ptr<workload::RequestSource>> sources;
  hosts.reserve(static_cast<std::size_t>(n));
  platforms.reserve(static_cast<std::size_t>(n));
  sources.reserve(static_cast<std::size_t>(n));
  for (int h = 0; h < n; ++h) {
    const std::uint64_t seed =
        config_.base_seed + 1000003ull * static_cast<std::uint64_t>(h);
    hosts.push_back(std::make_unique<virt::Host>(
        sharded.shard(shard_of(h)), topology, config_.costs, seed));
    platforms.push_back(virt::make_platform(*hosts.back(), spec));
    sources.push_back(make_source(config_, *platforms.back(),
                                  Rng(seed ^ 0x517cc1b727220a95ull)));
  }

  // Front-end state. Everything below is touched only from shard-0
  // events, so it needs no locks and behaves identically for every
  // thread and shard count.
  LoadBalancer balancer(config_.balancer, n);
  const int initial = initial_active();
  for (int h = 0; h < n; ++h) balancer.set_active(h, h < initial);

  ClusterResult out;
  out.peak_active = balancer.active_count();
  std::vector<std::int64_t> dispatched_per_host(static_cast<std::size_t>(n),
                                                0);
  Autoscaler autoscaler(config_.autoscaler);
  std::vector<char> provisioning(static_cast<std::size_t>(n), 0);
  int provisioning_count = 0;

  sim::Engine& front = sharded.shard(0);
  const SimTime traffic_end = sec_f(config_.traffic_seconds);
  const SimTime horizon =
      sec_f(config_.traffic_seconds + config_.drain_seconds);

  auto dispatch = [&](SimTime now) {
    const int host = balancer.pick();
    PINSIM_CHECK_MSG(host >= 0, "cluster front end found no active instance");
    const int id = static_cast<int>(out.trace.size());
    out.trace.push_back(RequestRecord{now, host, -1});
    ++out.dispatched;
    ++dispatched_per_host[static_cast<std::size_t>(host)];
    balancer.add_outstanding(host, +1);

    workload::RequestSource* source =
        sources[static_cast<std::size_t>(host)].get();
    sim::ShardedEngine* net = &sharded;
    sim::Engine* front_engine = &front;
    ClusterResult* result = &out;
    LoadBalancer* lb = &balancer;
    const int shard = shard_of(host);
    net->post(
        0, shard, kDispatchLatency,
        [net, front_engine, result, lb, source, shard, id, host] {
          source->inject([net, front_engine, result, lb, shard, id, host] {
            net->post(
                shard, 0, kDispatchLatency,
                [front_engine, result, lb, id, host] {
                  RequestRecord& record =
                      result->trace[static_cast<std::size_t>(id)];
                  record.latency = front_engine->now() - record.arrival;
                  lb->add_outstanding(host, -1);
                  ++result->completed;
                });
          });
        });
  };

  // Open-loop arrival pump: a self-rescheduling shard-0 event chain.
  Arrivals arrivals(config_.arrivals,
                    Rng(config_.base_seed ^ 0x94d049bb133111ebull));
  bool generating = false;
  std::function<void()> pump = [&] {
    dispatch(front.now());
    const SimTime next = arrivals.next();
    if (next < traffic_end) {
      front.schedule_detached(next - front.now(), [&] { pump(); });
    } else {
      generating = false;
    }
  };
  {
    const SimTime first = arrivals.next();
    if (first < traffic_end) {
      generating = true;
      front.schedule_detached(first, [&] { pump(); });
    }
  }

  // Watermark autoscaling: periodic shard-0 control ticks; scale-ups
  // pay the provisioning delay before the balancer may route to them,
  // scale-downs drain (in-flight requests still complete).
  auto activate_later = [&](int host) {
    provisioning[static_cast<std::size_t>(host)] = 1;
    ++provisioning_count;
    ++out.scale_ups;
    front.schedule_detached(config_.autoscaler.provisioning_delay,
                            [&, host] {
                              provisioning[static_cast<std::size_t>(host)] = 0;
                              --provisioning_count;
                              balancer.set_active(host, true);
                              out.peak_active = std::max(
                                  out.peak_active, balancer.active_count());
                            });
  };
  auto scale_up = [&](int count) {
    for (int k = 0; k < count; ++k) {
      // The lowest-index instance neither active nor provisioning.
      int pick = 0;
      while (pick < n && (balancer.active(pick) ||
                          provisioning[static_cast<std::size_t>(pick)] != 0)) {
        ++pick;
      }
      if (pick == n) return;
      activate_later(pick);
    }
  };
  auto scale_down = [&](int count) {
    for (int k = 0; k < count; ++k) {
      if (balancer.active_count() <= 1) return;  // keep one instance routable
      int pick = -1;
      // Least-loaded active instance, ties to the highest index.
      for (int h = 0; h < n; ++h) {
        if (!balancer.active(h)) continue;
        if (pick < 0 ||
            balancer.outstanding(h) <= balancer.outstanding(pick)) {
          pick = h;
        }
      }
      balancer.set_active(pick, false);
      ++out.scale_downs;
    }
  };
  std::function<void()> tick;
  if (config_.autoscale) {
    tick = [&] {
      const int delta =
          autoscaler.evaluate(front.now(), balancer.active_count(),
                              provisioning_count, balancer.total_outstanding());
      if (delta > 0) scale_up(delta);
      if (delta < 0) scale_down(-delta);
      if (front.now() + kEvaluationPeriod <= horizon) {
        front.schedule_detached(kEvaluationPeriod, [&] { tick(); });
      }
    };
    front.schedule_detached(kEvaluationPeriod, [&] { tick(); });
  }

  const auto drained = [&generating, &out] {
    return !generating && out.completed == out.dispatched;
  };
  const bool finished = sharded.run_until(drained, horizon);
  PINSIM_CHECK_MSG(finished, "cluster fleet (" << n << " hosts) did not drain "
                                               << "by the horizon");

  // Fold the SLO summary from the trace in request-id order — never in
  // completion order, which may tie-break differently across shard
  // counts.
  SloTracker tracker(config_.slo);
  for (const RequestRecord& record : out.trace) {
    PINSIM_CHECK(record.latency >= 0);
    tracker.record(to_seconds(record.latency));
  }
  out.slo = tracker.summary();

  out.hosts.reserve(static_cast<std::size_t>(n));
  for (int h = 0; h < n; ++h) {
    const std::size_t i = static_cast<std::size_t>(h);
    out.hosts.push_back(
        FleetHostReport{dispatched_per_host[i], sources[i]->served()});
  }
  out.final_active = balancer.active_count();
  out.shard_stats = sharded.stats();
  out.engine_stats = sharded.engine_stats();
  return out;
}

ClusterResult run_cluster(const FleetConfig& config) {
  Fleet fleet(config);
  return fleet.run();
}

}  // namespace pinsim::cluster
