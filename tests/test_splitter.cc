// Unit tests for the exact split finder.

#include "tree/splitter.h"

#include <gtest/gtest.h>

#include <cmath>

namespace treewm::tree {
namespace {

data::Dataset OneDimensional(std::vector<std::pair<float, int>> points) {
  data::Dataset d(1);
  for (auto [x, y] : points) {
    EXPECT_TRUE(d.AddRow(std::vector<float>{x}, y).ok());
  }
  return d;
}

std::vector<size_t> AllIndices(const data::Dataset& d) {
  std::vector<size_t> idx(d.num_rows());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return idx;
}

TEST(SplitterTest, FindsObviousSeparation) {
  data::Dataset d = OneDimensional({{0.1f, -1}, {0.2f, -1}, {0.8f, +1}, {0.9f, +1}});
  std::vector<double> weights(d.num_rows(), 1.0);
  Splitter splitter(d, weights);
  auto idx = AllIndices(d);
  auto split = splitter.FindBestSplit(idx, {0}, splitter.ComputeWeights(idx));
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->feature, 0);
  EXPECT_FLOAT_EQ(split->threshold, 0.5f);  // midpoint of 0.2 and 0.8
  EXPECT_NEAR(split->gain, 0.5, 1e-12);     // perfect split of balanced node
  EXPECT_EQ(split->left_count, 2u);
  EXPECT_EQ(split->right_count, 2u);
}

TEST(SplitterTest, NoSplitOnConstantFeature) {
  data::Dataset d = OneDimensional({{0.5f, -1}, {0.5f, +1}, {0.5f, -1}});
  std::vector<double> weights(d.num_rows(), 1.0);
  Splitter splitter(d, weights);
  auto idx = AllIndices(d);
  EXPECT_FALSE(splitter.FindBestSplit(idx, {0}, splitter.ComputeWeights(idx))
                   .has_value());
}

TEST(SplitterTest, NoSplitOnPureNode) {
  data::Dataset d = OneDimensional({{0.1f, +1}, {0.9f, +1}});
  std::vector<double> weights(d.num_rows(), 1.0);
  Splitter splitter(d, weights);
  auto idx = AllIndices(d);
  EXPECT_FALSE(splitter.FindBestSplit(idx, {0}, splitter.ComputeWeights(idx))
                   .has_value());
}

TEST(SplitterTest, IsolatesASingleRowWhenThatCutIsBest) {
  data::Dataset d =
      OneDimensional({{0.1f, -1}, {0.5f, +1}, {0.6f, +1}, {0.7f, +1}, {0.8f, +1}});
  std::vector<double> weights(d.num_rows(), 1.0);
  Splitter splitter(d, weights);
  auto idx = AllIndices(d);
  // The ideal cut isolates the single negative in a one-row leaf.
  auto split = splitter.FindBestSplit(idx, {0}, splitter.ComputeWeights(idx));
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->left_count, 1u);
  EXPECT_EQ(split->right_count, 4u);
}

TEST(SplitterTest, WeightsChangeTheChosenSplit) {
  // Two candidate cuts; upweighting the middle pair flips the winner.
  data::Dataset d(1);
  ASSERT_TRUE(d.AddRow(std::vector<float>{0.1f}, -1).ok());
  ASSERT_TRUE(d.AddRow(std::vector<float>{0.4f}, +1).ok());
  ASSERT_TRUE(d.AddRow(std::vector<float>{0.6f}, +1).ok());
  ASSERT_TRUE(d.AddRow(std::vector<float>{0.9f}, -1).ok());
  std::vector<double> uniform(4, 1.0);
  Splitter s1(d, uniform);
  auto idx = AllIndices(d);
  auto base = s1.FindBestSplit(idx, {0}, s1.ComputeWeights(idx));
  ASSERT_TRUE(base.has_value());

  std::vector<double> skewed{100.0, 1.0, 1.0, 1.0};
  Splitter s2(d, skewed);
  auto heavy = s2.FindBestSplit(idx, {0}, s2.ComputeWeights(idx));
  ASSERT_TRUE(heavy.has_value());
  // With the huge weight on the leftmost negative, isolating it is optimal.
  EXPECT_FLOAT_EQ(heavy->threshold, 0.25f);
}

TEST(SplitterTest, SearchesOnlyGivenFeatures) {
  data::Dataset d(2);
  // Feature 0 separates perfectly; feature 1 is noise.
  ASSERT_TRUE(d.AddRow(std::vector<float>{0.0f, 0.3f}, -1).ok());
  ASSERT_TRUE(d.AddRow(std::vector<float>{0.1f, 0.9f}, -1).ok());
  ASSERT_TRUE(d.AddRow(std::vector<float>{0.9f, 0.2f}, +1).ok());
  ASSERT_TRUE(d.AddRow(std::vector<float>{1.0f, 0.8f}, +1).ok());
  std::vector<double> weights(4, 1.0);
  Splitter splitter(d, weights);
  auto idx = AllIndices(d);
  auto only_noise = splitter.FindBestSplit(idx, {1}, splitter.ComputeWeights(idx));
  if (only_noise.has_value()) {
    EXPECT_EQ(only_noise->feature, 1);
    EXPECT_LT(only_noise->gain, 0.5);
  }
  auto both = splitter.FindBestSplit(idx, {0, 1}, splitter.ComputeWeights(idx));
  ASSERT_TRUE(both.has_value());
  EXPECT_EQ(both->feature, 0);
}

TEST(SplitterTest, PartitionMatchesThreshold) {
  data::Dataset d = OneDimensional({{0.1f, -1}, {0.4f, +1}, {0.6f, -1}, {0.9f, +1}});
  std::vector<double> weights(4, 1.0);
  Splitter splitter(d, weights);
  SplitCandidate split;
  split.feature = 0;
  split.threshold = 0.5f;
  std::vector<size_t> left;
  std::vector<size_t> right;
  splitter.Partition(AllIndices(d), split, &left, &right);
  EXPECT_EQ(left, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(right, (std::vector<size_t>{2, 3}));
}

TEST(SplitterTest, ThresholdNeverEqualsRightValue) {
  // Adjacent float values: the midpoint could round up; the splitter must
  // fall back so that "x <= t" still separates the two.
  const float a = 0.5f;
  const float b = std::nextafter(a, 1.0f);
  data::Dataset d = OneDimensional({{a, -1}, {b, +1}});
  std::vector<double> weights(2, 1.0);
  Splitter splitter(d, weights);
  auto idx = AllIndices(d);
  auto split = splitter.FindBestSplit(idx, {0}, splitter.ComputeWeights(idx));
  ASSERT_TRUE(split.has_value());
  EXPECT_GE(split->threshold, a);
  EXPECT_LT(split->threshold, b);
}

}  // namespace
}  // namespace treewm::tree
