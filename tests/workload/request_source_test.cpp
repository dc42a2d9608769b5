#include "workload/request_source.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hw/cost_model.hpp"
#include "hw/topology.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "virt/factory.hpp"
#include "virt/platform.hpp"

namespace pinsim::workload {
namespace {

struct Bench {
  virt::Host host;
  std::unique_ptr<virt::Platform> platform;

  explicit Bench(std::uint64_t seed = 1,
                 const std::string& instance = "xLarge")
      : host(virt::host_topology_for(spec_for(instance),
                                     hw::Topology::small_host_16()),
             hw::CostModel{}, seed),
        platform(virt::make_platform(host, spec_for(instance))) {}

  static virt::PlatformSpec spec_for(const std::string& instance) {
    return virt::PlatformSpec{virt::PlatformKind::Container,
                              virt::CpuMode::Pinned,
                              virt::instance_by_name(instance)};
  }

  /// Drive `count` requests through `source`, all injected at t = 0,
  /// and return each completion instant.
  std::vector<SimTime> serve(RequestSource& source, int count) {
    std::vector<SimTime> completions;
    sim::Engine& engine = platform->engine();
    engine.schedule_detached(0, [&] {
      for (int i = 0; i < count; ++i) {
        source.inject([&completions, &engine] {
          completions.push_back(engine.now());
        });
      }
    });
    const bool drained = engine.run_until(
        [&] { return static_cast<int>(completions.size()) == count; },
        sec(600));
    PINSIM_CHECK(drained);
    return completions;
  }
};

TEST(RequestSourceTest, WordPressServesEveryInjectedRequest) {
  Bench bench;
  auto source =
      make_wordpress_source(*bench.platform, WordPressConfig{}, Rng(3));
  EXPECT_STREQ(source->name(), "wordpress-serve");
  const std::vector<SimTime> completions = bench.serve(*source, 40);
  EXPECT_EQ(completions.size(), 40u);
  EXPECT_EQ(source->served(), 40);
  EXPECT_EQ(source->outstanding(), 0);
  for (const SimTime t : completions) EXPECT_GT(t, 0);
  // The fig-5 recipe does socket and (on page-cache misses) disk IO.
  EXPECT_GT(bench.host.nic().completed(), 0);
}

TEST(RequestSourceTest, CassandraWorkersServeInjectedOps) {
  Bench bench(5);
  CassandraConfig config;
  config.server_threads = 4;
  auto source = make_cassandra_source(*bench.platform, config, Rng(5));
  EXPECT_STREQ(source->name(), "cassandra-serve");
  const std::vector<SimTime> completions = bench.serve(*source, 32);
  EXPECT_EQ(completions.size(), 32u);
  EXPECT_EQ(source->served(), 32);
  EXPECT_EQ(source->outstanding(), 0);
  // Writes hit the commit log; cache misses hit SSTables.
  EXPECT_GT(bench.host.disk().completed(), 0);
}

TEST(RequestSourceTest, SameSeedReplaysIdenticalCompletionTimes) {
  CassandraConfig config;
  config.server_threads = 2;
  Bench a(9);
  Bench b(9);
  auto source_a = make_cassandra_source(*a.platform, config, Rng(9));
  auto source_b = make_cassandra_source(*b.platform, config, Rng(9));
  EXPECT_EQ(a.serve(*source_a, 24), b.serve(*source_b, 24));

  Bench c(9);
  Bench d(9);
  auto source_c =
      make_wordpress_source(*c.platform, WordPressConfig{}, Rng(9));
  auto source_d =
      make_wordpress_source(*d.platform, WordPressConfig{}, Rng(9));
  EXPECT_EQ(c.serve(*source_c, 24), d.serve(*source_d, 24));
}

TEST(RequestSourceTest, CassandraThreadsStayResident) {
  // A serving pool has no op budget: after its ops drain, every server
  // thread is still live, blocked waiting for the next one.
  Bench bench(7);
  CassandraConfig config;
  config.server_threads = 4;
  auto source = make_cassandra_source(*bench.platform, config, Rng(7));
  bench.serve(*source, 32);
  EXPECT_EQ(source->served(), 32);
  EXPECT_EQ(bench.host.kernel().live_tasks(), 4);
}

}  // namespace
}  // namespace pinsim::workload
