// Cluster serving-layer determinism: a fixed (config, seed) must yield
// a byte-identical request trace and summary for any worker-thread
// count and any shard count — the front end is shard-0-only state and
// all cross-shard influence travels the canonical mailbox merge, so
// these comparisons are exact equality, not tolerance checks.
#include "cluster/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/chr_advisor.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace pinsim::cluster {
namespace {

FleetConfig small_fleet(int hosts, int shards, int threads,
                        double rate_per_second = 40.0) {
  FleetConfig config;
  config.hosts = hosts;
  config.shards = shards;
  config.threads = threads;
  config.arrivals.rate_per_second = rate_per_second;
  config.traffic_seconds = 2.0;
  config.drain_seconds = 60.0;
  return config;
}

void expect_identical(const ClusterResult& a, const ClusterResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].arrival, b.trace[i].arrival) << "request " << i;
    EXPECT_EQ(a.trace[i].host, b.trace[i].host) << "request " << i;
    EXPECT_EQ(a.trace[i].latency, b.trace[i].latency) << "request " << i;
  }
  EXPECT_EQ(a.dispatched, b.dispatched);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.slo.total, b.slo.total);
  EXPECT_EQ(a.slo.violations, b.slo.violations);
  EXPECT_EQ(a.slo.p50_seconds, b.slo.p50_seconds);
  EXPECT_EQ(a.slo.p99_seconds, b.slo.p99_seconds);
  EXPECT_EQ(a.slo.p999_seconds, b.slo.p999_seconds);
  EXPECT_EQ(a.slo.mean_seconds, b.slo.mean_seconds);
  EXPECT_EQ(a.slo.max_seconds, b.slo.max_seconds);
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (std::size_t h = 0; h < a.hosts.size(); ++h) {
    EXPECT_EQ(a.hosts[h].dispatched, b.hosts[h].dispatched) << "host " << h;
    EXPECT_EQ(a.hosts[h].served, b.hosts[h].served) << "host " << h;
  }
  EXPECT_EQ(a.scale_ups, b.scale_ups);
  EXPECT_EQ(a.scale_downs, b.scale_downs);
  EXPECT_EQ(a.peak_active, b.peak_active);
  EXPECT_EQ(a.final_active, b.final_active);
}

TEST(ClusterFleetTest, ShardMapRoundRobins) {
  const Fleet fleet(small_fleet(5, 2, 1));
  EXPECT_EQ(fleet.shard_of(0), 0);
  EXPECT_EQ(fleet.shard_of(1), 1);
  EXPECT_EQ(fleet.shard_of(4), 0);
  EXPECT_THROW(fleet.shard_of(5), InvariantViolation);
}

TEST(ClusterFleetTest, ServesOpenLoopTrafficToCompletion) {
  const ClusterResult result = run_cluster(small_fleet(4, 1, 1));
  EXPECT_GT(result.dispatched, 20);
  EXPECT_EQ(result.completed, result.dispatched);
  EXPECT_EQ(result.slo.total, result.dispatched);
  EXPECT_GT(result.slo.p50_seconds, 0.0);
  EXPECT_GE(result.slo.p99_seconds, result.slo.p50_seconds);
  std::int64_t dispatched = 0;
  std::int64_t served = 0;
  for (const FleetHostReport& host : result.hosts) {
    dispatched += host.dispatched;
    served += host.served;
  }
  EXPECT_EQ(dispatched, result.dispatched);
  EXPECT_EQ(served, result.completed);
}

TEST(ClusterFleetTest, TraceIsIdenticalAcrossRepeatedRuns) {
  expect_identical(run_cluster(small_fleet(4, 2, 1)),
                   run_cluster(small_fleet(4, 2, 1)));
}

// The trace tests run each fleet at two rates. At 40 req/s the
// LeastOutstanding picks do not depend on the outstanding counts; at
// 400 req/s they do, so a completion that reaches the front end in the
// wrong round (or from a worker shard) changes which host is picked.
constexpr double kTraceRates[] = {40.0, 400.0};

TEST(ClusterFleetTest, ThreadCountDoesNotChangeTheTrace) {
  for (const double rate : kTraceRates) {
    SCOPED_TRACE(rate);
    expect_identical(run_cluster(small_fleet(4, 4, 1, rate)),
                     run_cluster(small_fleet(4, 4, 4, rate)));
  }
}

TEST(ClusterFleetTest, ShardCountDoesNotChangeTheTrace) {
  for (const double rate : kTraceRates) {
    SCOPED_TRACE(rate);
    const ClusterResult serial = run_cluster(small_fleet(4, 1, 1, rate));
    expect_identical(serial, run_cluster(small_fleet(4, 2, 1, rate)));
    expect_identical(serial, run_cluster(small_fleet(4, 4, 2, rate)));
  }
}

TEST(ClusterFleetTest, RoundsAdvanceByTheDispatchLeg) {
  // Both cross-shard legs carry kDispatchLatency, so each round may
  // advance that far: the round count is bounded by the run's length
  // in dispatch legs.
  FleetConfig config = small_fleet(8, 2, 1);
  config.arrivals.rate_per_second = 2000.0;
  config.traffic_seconds = 0.2;
  const ClusterResult result = run_cluster(config);
  ASSERT_GT(result.dispatched, 0);
  EXPECT_EQ(result.completed, result.dispatched);
  SimTime last_completion = 0;
  for (const RequestRecord& record : result.trace) {
    last_completion =
        std::max(last_completion, record.arrival + record.latency);
  }
  EXPECT_LE(result.shard_stats.rounds,
            last_completion / kDispatchLatency + 2);
}

TEST(ClusterFleetTest, CassandraFleetServesToCompletion) {
  FleetConfig config = small_fleet(3, 3, 2);
  config.app = workload::AppClass::IoNoSql;
  config.cassandra.server_threads = 4;
  const ClusterResult a = run_cluster(config);
  EXPECT_GT(a.dispatched, 20);
  EXPECT_EQ(a.completed, a.dispatched);
  expect_identical(a, run_cluster(config));
}

TEST(ClusterFleetTest, RoundRobinSpreadsLoadEvenly) {
  FleetConfig config = small_fleet(4, 1, 1);
  config.balancer = BalancerPolicy::RoundRobin;
  const ClusterResult result = run_cluster(config);
  std::int64_t lo = result.dispatched;
  std::int64_t hi = 0;
  for (const FleetHostReport& host : result.hosts) {
    lo = std::min(lo, host.dispatched);
    hi = std::max(hi, host.dispatched);
  }
  EXPECT_LE(hi - lo, 1);
}

TEST(ClusterFleetTest, ChrAdvisorPinsEveryHostIntoTheBand) {
  FleetConfig config = small_fleet(2, 1, 1);
  config.pinning = PinningPolicy::ChrAdvisor;
  // Every host runs the resolved spec.
  const virt::PlatformSpec spec = Fleet(config).resolved_spec();
  const core::ChrRange band = core::paper_chr_range(config.app);
  EXPECT_EQ(spec.mode, virt::CpuMode::Pinned);
  EXPECT_TRUE(band.contains(core::chr_of(spec.instance, config.full_host)));
}

TEST(ClusterFleetTest, AutoscalerGrowsTheFleetUnderBurst) {
  FleetConfig config = small_fleet(4, 2, 2);
  config.arrivals.kind = ArrivalKind::Burst;
  config.arrivals.rate_per_second = 30.0;
  config.arrivals.burst_multiplier = 10.0;
  config.arrivals.burst_seconds = 2.0;
  config.arrivals.quiet_seconds = 10.0;
  config.traffic_seconds = 4.0;
  config.autoscale = true;
  config.autoscaler.min_instances = 1;
  config.autoscaler.provisioning_delay = msec(500);
  config.autoscaler.cooldown = msec(500);
  const ClusterResult result = run_cluster(config);
  EXPECT_GT(result.scale_ups, 0);
  EXPECT_GT(result.peak_active, 1);
  EXPECT_EQ(result.completed, result.dispatched);
  expect_identical(result, run_cluster(config));
}

TEST(ClusterFleetTest, RejectsNonServingAppClasses) {
  FleetConfig config = small_fleet(2, 1, 1);
  config.app = workload::AppClass::CpuBound;
  EXPECT_THROW(Fleet{config}, InvariantViolation);
}

}  // namespace
}  // namespace pinsim::cluster
