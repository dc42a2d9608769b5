#include "os/cgroup.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace pinsim::os {
namespace {

hw::CostModel default_costs() { return hw::CostModel{}; }

TEST(CgroupTest, UnlimitedGroupNeverThrottles) {
  const auto costs = default_costs();
  Cgroup group(Cgroup::Config{"free", 0.0, {}}, costs);
  EXPECT_FALSE(group.has_quota());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(group.charge(0, sec(1)), 0);
  }
  EXPECT_FALSE(group.throttled());
  EXPECT_EQ(group.stats().usage, sec(100));
}

TEST(CgroupTest, QuotaExhaustionThrottles) {
  const auto costs = default_costs();
  // 2 cpus x 100 ms period = 200 ms of runtime.
  Cgroup group(Cgroup::Config{"cn", 2.0, {}}, costs);
  EXPECT_TRUE(group.has_quota());
  group.charge(0, msec(150));
  EXPECT_FALSE(group.throttled());
  group.charge(1, msec(60));
  EXPECT_TRUE(group.throttled());
  EXPECT_EQ(group.stats().throttles, 1);
}

TEST(CgroupTest, RefillReleasesThrottle) {
  const auto costs = default_costs();
  Cgroup group(Cgroup::Config{"cn", 1.0, {}}, costs);
  group.charge(0, msec(150));
  EXPECT_TRUE(group.throttled());
  EXPECT_TRUE(group.refill_period());
  EXPECT_FALSE(group.throttled());
  // Second refill without throttle returns false.
  EXPECT_FALSE(group.refill_period());
  EXPECT_GT(group.runtime_left(), 0);
}

TEST(CgroupTest, SliceRefillsCostAccounting) {
  const auto costs = default_costs();
  Cgroup group(Cgroup::Config{"cn", 2.0, {}}, costs);
  // Charging 10 ms on one cpu needs ceil(10/5) = 2 slice transfers.
  const SimDuration overhead = group.charge(0, msec(10));
  EXPECT_EQ(group.stats().slice_refills, 2);
  EXPECT_EQ(overhead, 2 * costs.cgroup_account);
}

TEST(CgroupTest, LocalSliceAvoidsRepeatRefills) {
  const auto costs = default_costs();
  Cgroup group(Cgroup::Config{"cn", 2.0, {}}, costs);
  group.charge(0, msec(1));
  const auto refills_before = group.stats().slice_refills;
  // Plenty of local runtime cached on cpu 0 now.
  EXPECT_EQ(group.charge(0, msec(1)), 0);
  EXPECT_EQ(group.stats().slice_refills, refills_before);
  // A different cpu needs its own slice.
  EXPECT_GT(group.charge(5, msec(1)), 0);
}

TEST(CgroupTest, SpreadTracksDistinctCpus) {
  const auto costs = default_costs();
  Cgroup group(Cgroup::Config{"cn", 0.0, {}}, costs);
  group.charge(0, usec(10));
  group.charge(0, usec(10));
  group.charge(5, usec(10));
  group.charge(111, usec(10));
  EXPECT_EQ(group.current_spread(), 3);
}

TEST(CgroupTest, AggregationCostGrowsWithSpread) {
  const auto costs = default_costs();
  Cgroup narrow(Cgroup::Config{"pinned", 0.0, {}}, costs);
  Cgroup wide(Cgroup::Config{"vanilla", 0.0, {}}, costs);
  for (int cpu = 0; cpu < 2; ++cpu) narrow.charge(cpu, usec(10));
  for (int cpu = 0; cpu < 112; ++cpu) wide.charge(cpu, usec(10));
  const SimDuration narrow_cost = narrow.aggregate();
  const SimDuration wide_cost = wide.aggregate();
  EXPECT_GT(wide_cost, narrow_cost);
  EXPECT_EQ(wide_cost - narrow_cost,
            110 * costs.cgroup_aggregate_per_core);
}

TEST(CgroupTest, AggregationResetsSpreadWindow) {
  const auto costs = default_costs();
  Cgroup group(Cgroup::Config{"cn", 0.0, {}}, costs);
  group.charge(3, usec(10));
  EXPECT_GT(group.aggregate(), 0);
  EXPECT_EQ(group.current_spread(), 0);
  // Idle group: aggregation is free.
  EXPECT_EQ(group.aggregate(), 0);
}

TEST(CgroupTest, MembershipMaintained) {
  const auto costs = default_costs();
  Cgroup group(Cgroup::Config{"cn", 0.0, {}}, costs);
  Task task(0, "t",
            std::make_unique<LambdaDriver>([](Task&) { return Action::exit(); }));
  group.add_member(task);
  EXPECT_EQ(task.cgroup, &group);
  EXPECT_EQ(group.member_count(), 1);
  group.remove_member(task);
  EXPECT_EQ(task.cgroup, nullptr);
  EXPECT_EQ(group.member_count(), 0);
}

TEST(CgroupTest, RepeatJoinKeepsOneMember) {
  const auto costs = default_costs();
  Cgroup group(Cgroup::Config{"cn", 0.0, {}}, costs);
  Cgroup other(Cgroup::Config{"other", 0.0, {}}, costs);
  auto make = [](Task::Id id) {
    return Task(id, "t" + std::to_string(id),
                std::make_unique<LambdaDriver>(
                    [](Task&) { return Action::exit(); }));
  };
  Task a = make(0);
  Task b = make(1);
  group.add_member(a);
  group.add_member(a);
  group.add_member(b);
  group.add_member(a);
  EXPECT_EQ(group.member_count(), 2);
  EXPECT_EQ(a.cgroup, &group);
  EXPECT_EQ(b.cgroup, &group);
  // A task belongs to one group at a time.
  EXPECT_THROW(other.add_member(a), InvariantViolation);
  EXPECT_EQ(other.member_count(), 0);
  EXPECT_EQ(a.cgroup, &group);
  group.remove_member(a);
  EXPECT_EQ(a.cgroup, nullptr);
  EXPECT_EQ(group.member_count(), 1);
  // After leaving, the task may join again (and only once).
  group.add_member(a);
  group.add_member(a);
  EXPECT_EQ(group.member_count(), 2);
  EXPECT_EQ(a.cgroup, &group);
}

TEST(CgroupTest, ThrottleOverrunBoundedByOneCharge) {
  const auto costs = default_costs();
  Cgroup group(Cgroup::Config{"cn", 1.0, {}}, costs);
  // One giant charge: pool is 100 ms, charge 500 ms. The group must be
  // throttled afterwards and usage recorded.
  group.charge(0, msec(500));
  EXPECT_TRUE(group.throttled());
  EXPECT_EQ(group.stats().usage, msec(500));
  EXPECT_EQ(group.runtime_left(), 0);
}

}  // namespace
}  // namespace pinsim::os
