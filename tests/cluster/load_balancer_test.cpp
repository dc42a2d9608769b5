#include "cluster/load_balancer.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace pinsim::cluster {
namespace {

TEST(LoadBalancerTest, RoundRobinCyclesActiveBackends) {
  LoadBalancer lb(BalancerPolicy::RoundRobin, 4);
  EXPECT_EQ(lb.pick(), 0);
  EXPECT_EQ(lb.pick(), 1);
  EXPECT_EQ(lb.pick(), 2);
  EXPECT_EQ(lb.pick(), 3);
  EXPECT_EQ(lb.pick(), 0);
  lb.set_active(1, false);
  EXPECT_EQ(lb.pick(), 2);  // skips the drained backend
  EXPECT_EQ(lb.pick(), 3);
  EXPECT_EQ(lb.pick(), 0);
  EXPECT_EQ(lb.decisions(), 8);
}

TEST(LoadBalancerTest, LeastOutstandingPicksMinTiesToLowestIndex) {
  LoadBalancer lb(BalancerPolicy::LeastOutstanding, 3);
  lb.add_outstanding(0, 2);
  lb.add_outstanding(1, 1);
  lb.add_outstanding(2, 1);
  EXPECT_EQ(lb.pick(), 1);
  lb.add_outstanding(1, -1);
  EXPECT_EQ(lb.pick(), 1);
  lb.set_active(1, false);
  EXPECT_EQ(lb.pick(), 2);
  EXPECT_EQ(lb.total_outstanding(), 3);
}

TEST(LoadBalancerTest, NoActiveBackendReturnsMinusOne) {
  LoadBalancer lb(BalancerPolicy::RoundRobin, 2);
  lb.set_active(0, false);
  lb.set_active(1, false);
  EXPECT_EQ(lb.pick(), -1);
  EXPECT_EQ(lb.decisions(), 0);
  EXPECT_EQ(lb.active_count(), 0);
}

TEST(LoadBalancerTest, ChecksBoundsAndNegativeOutstanding) {
  LoadBalancer lb(BalancerPolicy::RoundRobin, 2);
  EXPECT_THROW(lb.set_active(2, true), InvariantViolation);
  EXPECT_THROW(lb.outstanding(-1), InvariantViolation);
  EXPECT_THROW(lb.add_outstanding(0, -1), InvariantViolation);
  EXPECT_THROW(LoadBalancer(BalancerPolicy::RoundRobin, 0),
               InvariantViolation);
}

}  // namespace
}  // namespace pinsim::cluster
