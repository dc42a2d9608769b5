#include "hw/cpuset.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace pinsim::hw {
namespace {

TEST(CpuSetTest, EmptyByDefault) {
  CpuSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.count(), 0);
  EXPECT_FALSE(set.contains(0));
}

TEST(CpuSetTest, FirstN) {
  const CpuSet set = CpuSet::first_n(4);
  EXPECT_EQ(set.count(), 4);
  for (int cpu = 0; cpu < 4; ++cpu) EXPECT_TRUE(set.contains(cpu));
  EXPECT_FALSE(set.contains(4));
}

TEST(CpuSetTest, Range) {
  const CpuSet set = CpuSet::range(10, 14);
  EXPECT_EQ(set.count(), 4);
  EXPECT_FALSE(set.contains(9));
  EXPECT_TRUE(set.contains(10));
  EXPECT_TRUE(set.contains(13));
  EXPECT_FALSE(set.contains(14));
}

TEST(CpuSetTest, AddRemove) {
  CpuSet set;
  set.add(5);
  set.add(200);
  EXPECT_EQ(set.count(), 2);
  set.remove(5);
  EXPECT_FALSE(set.contains(5));
  EXPECT_TRUE(set.contains(200));
}

TEST(CpuSetTest, OutOfRangeRejected) {
  CpuSet set;
  EXPECT_THROW(set.add(-1), InvariantViolation);
  EXPECT_THROW(set.add(CpuSet::kMaxCpus), InvariantViolation);
  EXPECT_FALSE(set.contains(-1));
  EXPECT_FALSE(set.contains(1000));
}

TEST(CpuSetTest, SetOperations) {
  const CpuSet a = CpuSet::range(0, 6);
  const CpuSet b = CpuSet::range(4, 10);
  EXPECT_EQ((a & b).count(), 2);
  EXPECT_EQ((a | b).count(), 10);
  EXPECT_TRUE((a & b).subset_of(a));
  EXPECT_TRUE((a & b).subset_of(b));
  EXPECT_FALSE(a.subset_of(b));
  EXPECT_TRUE(a.subset_of(a));
}

TEST(CpuSetTest, FirstAndVector) {
  const CpuSet set = CpuSet::of({7, 3, 11});
  EXPECT_EQ(set.first(), 3);
  EXPECT_EQ(set.to_vector(), (std::vector<CpuId>{3, 7, 11}));
  EXPECT_THROW(CpuSet().first(), InvariantViolation);
}

TEST(CpuSetTest, ToString) {
  EXPECT_EQ(CpuSet().to_string(), "(empty)");
  EXPECT_EQ(CpuSet::of({0, 1, 2, 3}).to_string(), "0-3");
  EXPECT_EQ(CpuSet::of({0, 1, 5, 8, 9}).to_string(), "0-1,5,8-9");
}

TEST(CpuSetTest, Equality) {
  EXPECT_TRUE(CpuSet::first_n(3) == CpuSet::of({0, 1, 2}));
  EXPECT_FALSE(CpuSet::first_n(3) == CpuSet::first_n(4));
}

TEST(CpuSetTest, FirstSetAfterScansAcrossWords) {
  const CpuSet set = CpuSet::of({3, 7, 63, 64, 200});
  EXPECT_EQ(set.first_set_after(-1), 3);
  EXPECT_EQ(set.first_set_after(3), 7);
  EXPECT_EQ(set.first_set_after(7), 63);
  EXPECT_EQ(set.first_set_after(63), 64);
  EXPECT_EQ(set.first_set_after(64), 200);
  EXPECT_EQ(set.first_set_after(200), -1);
  EXPECT_EQ(CpuSet().first_set_after(-1), -1);
  // Starting below an absent id still finds the next set bit.
  EXPECT_EQ(set.first_set_after(100), 200);
}

TEST(CpuSetTest, NthSetMatchesAscendingOrder) {
  const CpuSet set = CpuSet::of({3, 7, 63, 64, 200});
  const std::vector<CpuId> ids = set.to_vector();
  for (int k = 0; k < set.count(); ++k) {
    EXPECT_EQ(set.nth_set(k), ids[static_cast<std::size_t>(k)]);
  }
  EXPECT_THROW(set.nth_set(set.count()), InvariantViolation);
  EXPECT_THROW(set.nth_set(-1), InvariantViolation);
}

TEST(CpuSetTest, ForEachVisitsAscendingAndMatchesToVector) {
  const CpuSet set = CpuSet::of({0, 1, 63, 64, 127, 128, 255});
  std::vector<CpuId> visited;
  set.for_each([&](CpuId cpu) { visited.push_back(cpu); });
  EXPECT_EQ(visited, set.to_vector());
}

TEST(CpuSetTest, ComplementSubtracts) {
  const CpuSet a = CpuSet::range(0, 10);
  const CpuSet b = CpuSet::of({2, 5, 9, 100});
  const CpuSet diff = a & ~b;
  EXPECT_EQ(diff.count(), 7);
  EXPECT_TRUE(diff.contains(0));
  EXPECT_FALSE(diff.contains(2));
  EXPECT_FALSE(diff.contains(5));
  EXPECT_TRUE((a & ~a).empty());
  EXPECT_EQ((~CpuSet()).count(), CpuSet::kMaxCpus);
}

TEST(CpuSetTest, WordExposesRawBits) {
  CpuSet set;
  set.add(0);
  set.add(65);
  EXPECT_EQ(set.word(0), 1ull);
  EXPECT_EQ(set.word(1), 2ull);
  EXPECT_EQ(set.word(2), 0ull);
}

// Bit-by-bit reference for the word-wise range construction.
CpuSet range_by_bits(int lo, int hi) {
  CpuSet set;
  for (int cpu = lo; cpu < hi; ++cpu) set.add(cpu);
  return set;
}

TEST(CpuSetTest, RangeMatchesBitByBitAcrossWordBoundaries) {
  const int edges[] = {0, 1, 63, 64, 65, 127, 128, 191, 192, 255, 256};
  for (const int lo : edges) {
    for (const int hi : edges) {
      if (lo > hi) continue;
      const CpuSet expected = range_by_bits(lo, hi);
      EXPECT_EQ(CpuSet::range(lo, hi), expected) << "[" << lo << ", " << hi
                                                 << ")";
      EXPECT_EQ(CpuSet::range(lo, hi).count(), hi - lo);
      if (lo == 0) {
        EXPECT_EQ(CpuSet::first_n(hi), expected) << "first_n(" << hi << ")";
      }
    }
  }
}

TEST(CpuSetTest, CountAndNthSetMatchBitByBitOnRandomSets) {
  // count() and nth_set() use a bit-arithmetic popcount per word.
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const double density = static_cast<double>(trial % 11) / 10.0;
    CpuSet set;
    for (CpuId cpu = 0; cpu < CpuSet::kMaxCpus; ++cpu) {
      if (rng.chance(density)) set.add(cpu);
    }
    std::vector<CpuId> ids;
    for (CpuId cpu = 0; cpu < CpuSet::kMaxCpus; ++cpu) {
      if (set.contains(cpu)) ids.push_back(cpu);
    }
    ASSERT_EQ(set.count(), static_cast<int>(ids.size())) << "trial " << trial;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      EXPECT_EQ(set.nth_set(static_cast<int>(k)), ids[k]) << "trial " << trial;
    }
  }
}

TEST(CpuSetTest, FirstNBounds) {
  EXPECT_TRUE(CpuSet::first_n(0).empty());
  EXPECT_EQ(CpuSet::first_n(CpuSet::kMaxCpus).count(), CpuSet::kMaxCpus);
  EXPECT_EQ(CpuSet::first_n(CpuSet::kMaxCpus), ~CpuSet());
}

TEST(CpuSetTest, RangeRejectsBadBounds) {
  EXPECT_THROW(CpuSet::range(5, 4), InvariantViolation);
  EXPECT_THROW(CpuSet::range(0, CpuSet::kMaxCpus + 1), InvariantViolation);
  EXPECT_THROW(CpuSet::range(-1, 3), InvariantViolation);
  EXPECT_THROW(CpuSet::first_n(-1), InvariantViolation);
}

}  // namespace
}  // namespace pinsim::hw
