#include "resources/maxmin.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "common/rng.h"
#include "support/oracles.h"

namespace perfsight {
namespace {

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// One arbiter call on fresh buffers.
std::vector<double> maxmin(double capacity, const std::vector<Demand>& d) {
  std::vector<double> alloc;
  MaxMinScratch scratch;
  weighted_maxmin(capacity, d, alloc, scratch);
  return alloc;
}

TEST(MaxMinTest, UnderloadedEveryoneSatisfied) {
  std::vector<Demand> d = {{3, 1, -1}, {2, 1, -1}, {4, 1, -1}};
  auto a = maxmin(100, d);
  EXPECT_DOUBLE_EQ(a[0], 3);
  EXPECT_DOUBLE_EQ(a[1], 2);
  EXPECT_DOUBLE_EQ(a[2], 4);
}

TEST(MaxMinTest, EqualWeightsEqualShares) {
  std::vector<Demand> d = {{100, 1, -1}, {100, 1, -1}, {100, 1, -1}};
  auto a = maxmin(30, d);
  EXPECT_NEAR(a[0], 10, 1e-9);
  EXPECT_NEAR(a[1], 10, 1e-9);
  EXPECT_NEAR(a[2], 10, 1e-9);
}

TEST(MaxMinTest, SmallDemandSatisfiedExcessRedistributed) {
  // Classic max-min: {2, 8, 10} with capacity 15 -> {2, 6.5, 6.5}.
  std::vector<Demand> d = {{2, 1, -1}, {8, 1, -1}, {10, 1, -1}};
  auto a = maxmin(15, d);
  EXPECT_NEAR(a[0], 2, 1e-9);
  EXPECT_NEAR(a[1], 6.5, 1e-9);
  EXPECT_NEAR(a[2], 6.5, 1e-9);
}

TEST(MaxMinTest, WeightsBiasShares) {
  std::vector<Demand> d = {{100, 3, -1}, {100, 1, -1}};
  auto a = maxmin(40, d);
  EXPECT_NEAR(a[0], 30, 1e-9);
  EXPECT_NEAR(a[1], 10, 1e-9);
}

TEST(MaxMinTest, CapClampsAllocation) {
  std::vector<Demand> d = {{100, 10, 5}, {100, 1, -1}};
  auto a = maxmin(40, d);
  // Heavy-weight consumer capped at 5; the rest flows to the other.
  EXPECT_NEAR(a[0], 5, 1e-9);
  EXPECT_NEAR(a[1], 35, 1e-9);
}

TEST(MaxMinTest, ZeroCapacity) {
  std::vector<Demand> d = {{10, 1, -1}};
  auto a = maxmin(0, d);
  EXPECT_DOUBLE_EQ(a[0], 0);
}

TEST(MaxMinTest, EmptyDemands) {
  EXPECT_TRUE(maxmin(10, {}).empty());
}

TEST(MaxMinTest, ZeroAndNegativeDemandsGetNothing) {
  std::vector<Demand> d = {{0, 1, -1}, {-5, 1, -1}, {10, 1, -1}};
  auto a = maxmin(6, d);
  EXPECT_DOUBLE_EQ(a[0], 0);
  EXPECT_DOUBLE_EQ(a[1], 0);
  EXPECT_NEAR(a[2], 6, 1e-9);
}

// Property sweep: random demand sets must satisfy the allocation invariants.
class MaxMinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaxMinPropertyTest, Invariants) {
  Pcg32 rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    size_t n = 1 + rng.next_below(12);
    double capacity = rng.uniform(0.0, 100.0);
    std::vector<Demand> d(n);
    double total_want = 0;
    for (auto& dem : d) {
      dem.amount = rng.uniform(0.0, 40.0);
      dem.weight = rng.uniform(0.1, 5.0);
      dem.cap = rng.next_below(3) == 0 ? rng.uniform(0.0, 30.0) : -1.0;
      double w = dem.amount;
      if (dem.cap >= 0 && dem.cap < w) w = dem.cap;
      total_want += w;
    }
    auto a = maxmin(capacity, d);
    ASSERT_EQ(a.size(), n);
    // (1) capacity never exceeded
    EXPECT_LE(sum(a), capacity + 1e-6);
    for (size_t i = 0; i < n; ++i) {
      // (2) nobody gets more than min(demand, cap), nobody gets < 0
      double lim = d[i].amount;
      if (d[i].cap >= 0 && d[i].cap < lim) lim = d[i].cap;
      EXPECT_LE(a[i], lim + 1e-6);
      EXPECT_GE(a[i], -1e-9);
    }
    // (3) work conserving
    EXPECT_NEAR(sum(a), std::min(total_want, capacity), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinPropertyTest,
                         ::testing::Values(1, 2, 3, 42, 1234, 99999));

// Max-min fairness: among unsatisfied consumers, per-weight shares equal.
TEST(MaxMinTest, UnsatisfiedConsumersGetEqualPerWeightShares) {
  std::vector<Demand> d = {{100, 2, -1}, {100, 1, -1}, {1, 1, -1}};
  auto a = maxmin(31, d);
  EXPECT_NEAR(a[2], 1, 1e-9);  // tiny demand satisfied
  EXPECT_NEAR(a[0] / 2.0, a[1] / 1.0, 1e-9);
  EXPECT_NEAR(a[0] + a[1], 30, 1e-9);
}

// Caller-owned scratch changes nothing: over seeded random demand sets, one
// reused output/scratch pair gives allocations bit-identical to the
// per-call-allocating reference.  Sizes are drawn so a large call is often
// followed by a smaller one, where stale scratch from the larger would show.
TEST(MaxMinTest, ReusedScratchIsBitIdenticalToAllocatingReference) {
  Pcg32 rng(4242);
  std::vector<double> alloc;
  MaxMinScratch scratch;
  for (int iter = 0; iter < 2000; ++iter) {
    const size_t n = iter % 2 == 0 ? 20 + rng.next_below(40)
                                   : rng.next_below(8);
    double capacity = rng.uniform(-5.0, 150.0);
    std::vector<Demand> d(n);
    for (Demand& dem : d) {
      dem.amount = rng.uniform(-5.0, 40.0);
      dem.weight = rng.next_below(8) == 0 ? 0.0 : rng.uniform(0.1, 5.0);
      dem.cap = rng.next_below(3) == 0 ? rng.uniform(0.0, 30.0) : -1.0;
    }
    weighted_maxmin(capacity, d, alloc, scratch);
    std::vector<double> want = oracle::reference_weighted_maxmin(capacity, d);
    ASSERT_EQ(alloc.size(), want.size()) << "iter " << iter;
    for (size_t i = 0; i < n; ++i) {
      // Bitwise: the same operations in the same order.
      EXPECT_EQ(std::memcmp(&alloc[i], &want[i], sizeof(double)), 0)
          << "iter " << iter << " consumer " << i << ": " << alloc[i]
          << " vs " << want[i];
    }
  }
}

}  // namespace
}  // namespace perfsight
