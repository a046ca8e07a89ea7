// Unit and property tests for the deterministic PRNG.

#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace treewm {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformRealInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.UniformReal();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRealMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformReal();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(13);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.UniformInt(bound), bound);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(17);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntRangeInclusive) {
  Rng rng(19);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformIntRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, BernoulliFrequencyTracksP) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, GaussianMomentsMatch) {
  Rng rng(29);
  double sum = 0.0;
  double sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Gaussian();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(RngTest, GaussianWithParamsShiftsAndScales) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Gaussian(5.0, 0.1);
  EXPECT_NEAR(sum / n, 5.0, 0.01);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ShuffleHandlesEmptyAndSingleton) {
  Rng rng(41);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(43);
  for (int trial = 0; trial < 50; ++trial) {
    auto sample = rng.SampleWithoutReplacement(100, 30);
    EXPECT_EQ(sample.size(), 30u);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 30u);
    for (size_t idx : sample) EXPECT_LT(idx, 100u);
  }
}

TEST(RngTest, SampleFullPopulationIsPermutation) {
  Rng rng(47);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

/// Property sweep: bounded sampling is unbiased enough across bounds.
class RngBoundSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngBoundSweep, ChiSquareNotInsane) {
  const uint64_t bound = GetParam();
  Rng rng(61 + bound);
  std::vector<int> counts(bound, 0);
  const int n = 20000 * static_cast<int>(bound);
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(bound)];
  const double expected = static_cast<double>(n) / static_cast<double>(bound);
  double chi2 = 0.0;
  for (int c : counts) {
    const double diff = c - expected;
    chi2 += diff * diff / expected;
  }
  // Very loose bound: chi2 with (bound-1) dof should be < 5*dof + 20.
  EXPECT_LT(chi2, 5.0 * static_cast<double>(bound - 1) + 20.0);
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBoundSweep, ::testing::Values(2, 3, 5, 10, 17));

}  // namespace
}  // namespace treewm
