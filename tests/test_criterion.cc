// Unit tests for the Gini split criterion.

#include "tree/criterion.h"

#include <gtest/gtest.h>

namespace treewm::tree {
namespace {

TEST(ClassWeightsTest, AddRemoveAndMajority) {
  ClassWeights w;
  w.Add(+1, 2.0);
  w.Add(-1, 3.0);
  EXPECT_DOUBLE_EQ(w.Total(), 5.0);
  EXPECT_EQ(w.MajorityLabel(), -1);
  w.Remove(-1, 2.0);
  EXPECT_EQ(w.MajorityLabel(), +1);
  // Tie breaks positive (documented).
  w.Remove(+1, 1.0);
  EXPECT_DOUBLE_EQ(w.positive, 1.0);
  EXPECT_DOUBLE_EQ(w.negative, 1.0);
  EXPECT_EQ(w.MajorityLabel(), +1);
}

TEST(GiniTest, PureNodesAreZero) {
  EXPECT_DOUBLE_EQ(GiniImpurity({4.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(GiniImpurity({0.0, 7.0}), 0.0);
  EXPECT_DOUBLE_EQ(GiniImpurity({0.0, 0.0}), 0.0);
}

TEST(GiniTest, BalancedIsMaximal) {
  EXPECT_DOUBLE_EQ(GiniImpurity({5.0, 5.0}), 0.5);
  // 2p(1-p) with p=0.25.
  EXPECT_DOUBLE_EQ(GiniImpurity({1.0, 3.0}), 2.0 * 0.25 * 0.75);
}

TEST(ImpurityDecreaseTest, PerfectSplitRecoversParentImpurity) {
  ClassWeights parent{4.0, 4.0};
  ClassWeights left{4.0, 0.0};
  ClassWeights right{0.0, 4.0};
  EXPECT_DOUBLE_EQ(ImpurityDecrease(parent, left, right), 0.5);
}

TEST(ImpurityDecreaseTest, UselessSplitIsZero) {
  ClassWeights parent{4.0, 4.0};
  ClassWeights left{2.0, 2.0};
  ClassWeights right{2.0, 2.0};
  EXPECT_NEAR(ImpurityDecrease(parent, left, right), 0.0, 1e-12);
}

TEST(ImpurityDecreaseTest, EmptyParentIsZero) {
  EXPECT_DOUBLE_EQ(ImpurityDecrease({0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}), 0.0);
}

TEST(ImpurityDecreaseTest, WeightsMatter) {
  // Same counts, different weights: the heavier side dominates.
  ClassWeights parent{10.0, 1.0};
  ClassWeights left{10.0, 0.0};
  ClassWeights right{0.0, 1.0};
  const double gain = ImpurityDecrease(parent, left, right);
  EXPECT_GT(gain, 0.0);
  EXPECT_NEAR(gain, GiniImpurity(parent), 1e-12);
}

}  // namespace
}  // namespace treewm::tree
