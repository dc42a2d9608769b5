// The cluster serving layer: N simulated hosts behind one front end.
//
// A Fleet instantiates `hosts` full virt::Hosts (host h runs on the
// engine of shard h % shards, seeded like repetition h of a solo-engine
// run), deploys one workload::RequestSource per host, and drives
// open-loop traffic from a front end living on shard 0:
//
//   Arrivals ----> LoadBalancer ----> host h's RequestSource
//      |  pick()+dispatch   \--- post(0, shard(h), kDispatchLatency)
//      |                          inject() ... request executes ...
//      |              completion: post(shard(h), 0, kDispatchLatency)
//      v
//   Autoscaler tick: watermark decisions -> provisioning timers ->
//   activate/deactivate instances in the balancer
//
// The pinning controller (PinningPolicy::ChrAdvisor) turns the paper's
// post-hoc CHR table into placement policy: every host's container is
// sized by core::recommend_instance for the app class and pinned. Every
// host runs the same spec, so the fleet is homogeneous.
//
// Determinism contract (tests/cluster/fleet_test.cpp): a fixed config +
// seed yields a byte-identical request trace and ClusterResult summary
// for any `threads` and any `shards`. The load-bearing choices:
//  - every front-end structure (balancer, autoscaler, trace, counters)
//    is touched only by shard-0 events; hosts are reached exclusively
//    through ShardedEngine::post with kDispatchLatency (the round
//    loop's lookahead), and completions notify the front end the same
//    way, so all cross-shard influence travels the canonical mailbox
//    merge;
//  - per-request latency is recorded into trace[id] at exact event
//    instants, keyed by the dispatch-order id, and the SLO summary is
//    folded from the trace in id order after the run — no accumulation
//    follows event-completion order, which may tie-break differently
//    between shard counts;
//  - raw wall-clock at stop is window-granular under shards > 1 (the
//    round loop stops at a window boundary) and deliberately not part
//    of ClusterResult.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/arrivals.hpp"
#include "cluster/autoscaler.hpp"
#include "cluster/load_balancer.hpp"
#include "cluster/slo.hpp"
#include "hw/cost_model.hpp"
#include "hw/topology.hpp"
#include "sim/sharded_engine.hpp"
#include "util/units.hpp"
#include "virt/factory.hpp"
#include "workload/cassandra.hpp"
#include "workload/profiles.hpp"

namespace pinsim::cluster {

/// How the fleet sizes and pins its per-host instances.
enum class PinningPolicy {
  /// Run FleetConfig::spec exactly as given.
  AsConfigured,
  /// Size every host by core::recommend_instance (smallest instance in
  /// the app class's recommended CHR band, pinned); fall back to the
  /// largest catalog instance that fits when no size lands in the band.
  ChrAdvisor,
};

const char* to_string(PinningPolicy policy);

/// Simulated front-end <-> host network latency, each way, and the
/// sharded round loop's lookahead. Must be >= the cost model's
/// min_cross_shard_latency() (checked).
inline constexpr SimDuration kDispatchLatency = usec(200);

struct FleetConfig {
  int hosts = 4;
  /// Event shards; host h lives on shard h % shards, the front end on
  /// shard 0. shards == 1 is the serial baseline.
  int shards = 1;
  /// Host threads for the sharded round loop.
  int threads = 1;
  /// Serving application (IoWeb -> WordPress, IoNoSql -> Cassandra).
  workload::AppClass app = workload::AppClass::IoWeb;
  /// Platform every host runs, unless the pinning policy overrides it.
  virt::PlatformSpec spec{virt::PlatformKind::Container,
                          virt::CpuMode::Vanilla,
                          virt::instance_by_name("xLarge")};
  PinningPolicy pinning = PinningPolicy::AsConfigured;
  hw::Topology full_host = hw::Topology::small_host_16();
  hw::CostModel costs;
  std::uint64_t base_seed = 42;

  ArrivalConfig arrivals;
  /// Arrivals are generated inside [0, traffic_seconds); the run then
  /// drains until every dispatched request completed (checked against
  /// traffic_seconds + drain_seconds).
  double traffic_seconds = 30.0;
  double drain_seconds = 120.0;

  BalancerPolicy balancer = BalancerPolicy::LeastOutstanding;

  /// Without autoscaling every host is active throughout; with it,
  /// autoscaler.min_instances hosts are active at t = 0.
  bool autoscale = false;
  AutoscalerConfig autoscaler;

  SloConfig slo;

  /// Service-recipe tuning for the Cassandra source (batch-only fields
  /// are ignored; see workload/request_source.hpp). WordPress hosts run
  /// the default WordPressConfig.
  workload::CassandraConfig cassandra;
};

/// One request as the front end saw it. trace[id] is written at
/// dispatch (arrival, host) and at the completion notification
/// (latency); id order is dispatch order.
struct RequestRecord {
  SimTime arrival = 0;
  int host = -1;
  /// Front-end round trip: completion notification minus arrival
  /// (network legs included); -1 until the request completes.
  SimDuration latency = -1;
};

struct FleetHostReport {
  std::int64_t dispatched = 0;
  std::int64_t served = 0;
};

// Front-end state: shard-0-owned (see LoadBalancer).
struct ClusterResult {
  std::vector<RequestRecord> trace;
  std::int64_t dispatched = 0;
  std::int64_t completed = 0;
  SloSummary slo;
  std::vector<FleetHostReport> hosts;
  std::int64_t scale_ups = 0;
  std::int64_t scale_downs = 0;
  int peak_active = 0;
  int final_active = 0;
  sim::ShardedEngineStats shard_stats;
  sim::EngineStats engine_stats;
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config);

  const FleetConfig& config() const { return config_; }

  /// Shard hosting host `h` (checked accessor for the host_shard_ map).
  int shard_of(int host) const;

  /// The platform spec every host runs, after the pinning policy is
  /// applied.
  virt::PlatformSpec resolved_spec() const;

  /// Build the fleet, run the traffic, drain, and summarize.
  ClusterResult run();

 private:
  int initial_active() const;

  FleetConfig config_;
  /// host -> shard back-pointer map, fixed at construction.
  std::vector<int> host_shard_;
};

/// Convenience one-shot wrapper.
ClusterResult run_cluster(const FleetConfig& config);

}  // namespace pinsim::cluster
