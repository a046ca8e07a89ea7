// Unit and property tests for splitting / sampling.

#include "data/sampling.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/synthetic.h"

namespace treewm::data {
namespace {

Dataset MakeImbalanced(size_t n, double positive_fraction) {
  return synthetic::MakeBlobs(/*seed=*/3, n, /*num_features=*/4, 2.0,
                              positive_fraction);
}

TEST(StratifiedSplitTest, PartitionIsExactAndDisjoint) {
  Dataset d = MakeImbalanced(200, 0.3);
  Rng rng(1);
  auto split = StratifiedSplit(d, 0.25, &rng);
  ASSERT_TRUE(split.ok());
  const auto& s = split.value();
  EXPECT_EQ(s.train.size() + s.test.size(), d.num_rows());
  std::set<size_t> seen(s.train.begin(), s.train.end());
  seen.insert(s.test.begin(), s.test.end());
  EXPECT_EQ(seen.size(), d.num_rows());
}

TEST(StratifiedSplitTest, PreservesClassRatio) {
  Dataset d = MakeImbalanced(1000, 0.2);
  Rng rng(2);
  auto split = StratifiedSplit(d, 0.3, &rng);
  ASSERT_TRUE(split.ok());
  Dataset test = d.Subset(split.value().test);
  Dataset train = d.Subset(split.value().train);
  EXPECT_NEAR(test.PositiveFraction(), 0.2, 0.02);
  EXPECT_NEAR(train.PositiveFraction(), 0.2, 0.02);
}

TEST(StratifiedSplitTest, RejectsBadFractions) {
  Dataset d = MakeImbalanced(10, 0.5);
  Rng rng(3);
  EXPECT_FALSE(StratifiedSplit(d, 0.0, &rng).ok());
  EXPECT_FALSE(StratifiedSplit(d, 1.0, &rng).ok());
  EXPECT_FALSE(StratifiedSplit(d, -0.5, &rng).ok());
}

TEST(StratifiedSplitTest, BothSidesNonEmptyForTinyData) {
  Dataset d = MakeImbalanced(4, 0.5);
  Rng rng(4);
  auto split = StratifiedSplit(d, 0.01, &rng);
  ASSERT_TRUE(split.ok());
  EXPECT_FALSE(split.value().test.empty());
  EXPECT_FALSE(split.value().train.empty());
}

TEST(SampleTriggerIndicesTest, DistinctInRangeIndices) {
  Dataset d = MakeImbalanced(100, 0.5);
  Rng rng(8);
  auto trigger = SampleTriggerIndices(d, 10, &rng);
  ASSERT_TRUE(trigger.ok());
  EXPECT_EQ(trigger.value().size(), 10u);
  std::set<size_t> unique(trigger.value().begin(), trigger.value().end());
  EXPECT_EQ(unique.size(), 10u);
  for (size_t idx : trigger.value()) EXPECT_LT(idx, 100u);
}

TEST(SampleTriggerIndicesTest, RejectsDegenerateSizes) {
  Dataset d = MakeImbalanced(10, 0.5);
  Rng rng(9);
  EXPECT_FALSE(SampleTriggerIndices(d, 0, &rng).ok());
  EXPECT_FALSE(SampleTriggerIndices(d, 11, &rng).ok());
}

TEST(MakeTrainTestTest, MaterializesSplit) {
  Dataset d = MakeImbalanced(100, 0.5);
  Rng rng(10);
  auto tt = MakeTrainTest(d, 0.2, &rng);
  ASSERT_TRUE(tt.ok());
  EXPECT_EQ(tt.value().train.num_rows() + tt.value().test.num_rows(), 100u);
  EXPECT_EQ(tt.value().train.num_features(), d.num_features());
}

/// Property sweep: stratified split keeps ratios across fractions and skews.
struct SplitParam {
  double test_fraction;
  double positive_fraction;
};

class StratifiedSplitSweep : public ::testing::TestWithParam<SplitParam> {};

TEST_P(StratifiedSplitSweep, RatioPreserved) {
  const SplitParam p = GetParam();
  Dataset d = MakeImbalanced(1500, p.positive_fraction);
  Rng rng(42);
  auto split = StratifiedSplit(d, p.test_fraction, &rng);
  ASSERT_TRUE(split.ok());
  Dataset test = d.Subset(split.value().test);
  EXPECT_NEAR(test.PositiveFraction(), d.PositiveFraction(), 0.03);
  EXPECT_NEAR(static_cast<double>(test.num_rows()) / 1500.0, p.test_fraction, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Fractions, StratifiedSplitSweep,
    ::testing::Values(SplitParam{0.1, 0.5}, SplitParam{0.3, 0.5},
                      SplitParam{0.5, 0.5}, SplitParam{0.3, 0.1},
                      SplitParam{0.3, 0.9}, SplitParam{0.2, 0.63}));

}  // namespace
}  // namespace treewm::data
