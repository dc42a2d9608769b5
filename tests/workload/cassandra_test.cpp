#include "workload/cassandra.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"
#include "virt/factory.hpp"
#include "workload/request_source.hpp"

namespace pinsim::workload {
namespace {

CassandraConfig small_config() {
  CassandraConfig config;
  config.operations = 200;
  config.server_threads = 20;
  return config;
}

RunResult run_on(Workload& workload, virt::PlatformKind kind,
                 virt::CpuMode mode, const std::string& instance,
                 std::uint64_t seed = 1) {
  const virt::PlatformSpec spec{kind, mode,
                                virt::instance_by_name(instance)};
  virt::Host host(virt::host_topology_for(spec, hw::Topology::dell_r830()),
                  hw::CostModel{}, seed);
  auto platform = virt::make_platform(host, spec);
  return workload.run(*platform, Rng(seed));
}

TEST(CassandraTest, ServesEveryOperation) {
  Cassandra cassandra(small_config());
  const RunResult result = run_on(cassandra, virt::PlatformKind::BareMetal,
                                  virt::CpuMode::Vanilla, "xLarge");
  EXPECT_EQ(result.extras.at("ops"), 200);
  EXPECT_GT(result.metric_seconds, 0.0);
}

TEST(CassandraTest, WritesHitTheCommitLog) {
  CassandraConfig config = small_config();
  config.write_fraction = 1.0;  // all writes
  Cassandra cassandra(config);
  const virt::PlatformSpec spec{virt::PlatformKind::BareMetal,
                                virt::CpuMode::Vanilla,
                                virt::instance_by_name("2xLarge")};
  virt::Host host(virt::host_topology_for(spec, hw::Topology::dell_r830()),
                  hw::CostModel{}, 3);
  auto platform = virt::make_platform(host, spec);
  cassandra.run(*platform, Rng(3));
  EXPECT_EQ(host.disk().completed(), 200);
}

TEST(CassandraTest, BiggerMemoryMeansFewerDiskReads) {
  // Table II scales memory with cores: the same read-only workload does
  // far less disk IO on a big instance than on a small one.
  auto disk_reads = [](const std::string& instance) {
    CassandraConfig config;
    config.operations = 200;
    config.server_threads = 20;
    config.write_fraction = 0.0;
    Cassandra cassandra(config);
    const virt::PlatformSpec spec{virt::PlatformKind::BareMetal,
                                  virt::CpuMode::Vanilla,
                                  virt::instance_by_name(instance)};
    virt::Host host(
        virt::host_topology_for(spec, hw::Topology::dell_r830()),
        hw::CostModel{}, 3);
    auto platform = virt::make_platform(host, spec);
    cassandra.run(*platform, Rng(3));
    return host.disk().completed();
  };
  const auto small = disk_reads("xLarge");    // 16 GB vs 64 GB dataset
  const auto big = disk_reads("16xLarge");    // 256 GB: fully cached
  EXPECT_GT(small, 100);
  EXPECT_LT(big, 30);
}

TEST(CassandraTest, MoreCoresReduceResponseTime) {
  Cassandra cassandra(small_config());
  const double small = run_on(cassandra, virt::PlatformKind::BareMetal,
                              virt::CpuMode::Vanilla, "xLarge", 5)
                           .metric_seconds;
  const double big = run_on(cassandra, virt::PlatformKind::BareMetal,
                            virt::CpuMode::Vanilla, "8xLarge", 5)
                        .metric_seconds;
  EXPECT_GT(small, big);
}

TEST(CassandraTest, VanillaContainerFarWorseThanPinned) {
  // Figure 6: vanilla CN is the worst platform for Cassandra at small
  // sizes; pinned CN the best.
  Cassandra cassandra(small_config());
  const double vanilla_cn = run_on(cassandra, virt::PlatformKind::Container,
                                   virt::CpuMode::Vanilla, "xLarge", 9)
                                .metric_seconds;
  const double pinned_cn = run_on(cassandra, virt::PlatformKind::Container,
                                  virt::CpuMode::Pinned, "xLarge", 9)
                               .metric_seconds;
  EXPECT_GT(vanilla_cn, 1.5 * pinned_cn);
}

TEST(CassandraTest, UnevenShareExitsEveryThread) {
  // 7 ops over 3 threads: thread 0 serves 3, threads 1 and 2 serve 2.
  // The run only completes once every thread has served its share and
  // exited.
  CassandraConfig config;
  config.operations = 7;
  config.server_threads = 3;
  Cassandra cassandra(config);
  const virt::PlatformSpec spec{virt::PlatformKind::BareMetal,
                                virt::CpuMode::Vanilla,
                                virt::instance_by_name("xLarge")};
  virt::Host host(virt::host_topology_for(spec, hw::Topology::dell_r830()),
                  hw::CostModel{}, 4);
  auto platform = virt::make_platform(host, spec);
  const RunResult result = cassandra.run(*platform, Rng(4));
  EXPECT_EQ(result.extras.at("ops"), 7);
  EXPECT_EQ(host.kernel().live_tasks(), 0);
}

TEST(CassandraTest, RejectsZeroServerThreads) {
  CassandraConfig config = small_config();
  config.server_threads = 0;
  Cassandra cassandra(config);
  const virt::PlatformSpec spec{virt::PlatformKind::BareMetal,
                                virt::CpuMode::Vanilla,
                                virt::instance_by_name("xLarge")};
  virt::Host host(virt::host_topology_for(spec, hw::Topology::dell_r830()),
                  hw::CostModel{}, 1);
  auto platform = virt::make_platform(host, spec);
  EXPECT_THROW(cassandra.run(*platform, Rng(1)), InvariantViolation);
  EXPECT_THROW(make_cassandra_source(*platform, config, Rng(1)),
               InvariantViolation);
}

}  // namespace
}  // namespace pinsim::workload
