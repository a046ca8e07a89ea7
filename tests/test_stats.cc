// Unit tests for streaming statistics.

#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace treewm {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.PopulationVariance(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.PopulationVariance(), 0.0);
  EXPECT_DOUBLE_EQ(s.Min(), 5.0);
  EXPECT_DOUBLE_EQ(s.Max(), 5.0);
}

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.PopulationVariance(), 4.0);
  EXPECT_DOUBLE_EQ(s.PopulationStdDev(), 2.0);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
}

TEST(RunningStatsTest, MatchesNaiveComputation) {
  Rng rng(5);
  std::vector<double> values;
  RunningStats s;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Gaussian(3.0, 2.0);
    values.push_back(v);
    s.Add(v);
  }
  double sum = 0.0;
  for (double v : values) sum += v;
  const double mean = sum / static_cast<double>(values.size());
  double ss = 0.0;
  for (double v : values) ss += (v - mean) * (v - mean);
  EXPECT_NEAR(s.Mean(), mean, 1e-9);
  EXPECT_NEAR(s.PopulationVariance(), ss / static_cast<double>(values.size()), 1e-9);
}

TEST(RunningStatsTest, NumericallyStableForLargeOffsets) {
  RunningStats s;
  for (int i = 0; i < 1000; ++i) s.Add(1e9 + (i % 2));
  EXPECT_NEAR(s.Mean(), 1e9 + 0.5, 1e-3);
  EXPECT_NEAR(s.PopulationVariance(), 0.25, 1e-6);
}

TEST(BatchStatsTest, MeanAndStdDevHelpers) {
  std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(values), 2.5);
  EXPECT_NEAR(PopulationStdDev(values), std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(PopulationStdDev({}), 0.0);
}

}  // namespace
}  // namespace treewm
