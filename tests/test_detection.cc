// Tests for the structural watermark detection attack (Table 2).

#include "attacks/detection.h"

#include <gtest/gtest.h>

#include "core/watermark.h"
#include "data/synthetic.h"

namespace treewm::attacks {
namespace {

using tree::DecisionTree;
using tree::TreeNode;

/// Builds a right-spine chain tree of the requested depth (depth >= 1):
/// depth d gives d internal nodes and d+1 leaves.
DecisionTree ChainTree(int depth) {
  std::vector<TreeNode> nodes(2 * static_cast<size_t>(depth) + 1);
  for (int i = 0; i < depth; ++i) {
    TreeNode& internal = nodes[2 * static_cast<size_t>(i)];
    internal.feature = 0;
    internal.threshold = 1.0f / static_cast<float>(i + 2);
    internal.left = 2 * i + 1;
    internal.right = 2 * i + 2;
    TreeNode& left_leaf = nodes[2 * static_cast<size_t>(i) + 1];
    left_leaf.feature = -1;
    left_leaf.label = i % 2 == 0 ? +1 : -1;
  }
  TreeNode& last = nodes.back();
  last.feature = -1;
  last.label = -1;
  return DecisionTree::FromNodes(std::move(nodes), 1).MoveValue();
}

TEST(MeasureStatisticTest, DepthAndLeaves) {
  auto forest =
      forest::RandomForest::FromTrees({ChainTree(2), ChainTree(5)}).MoveValue();
  auto depths = MeasureStatistic(forest, TreeStatistic::kDepth);
  EXPECT_EQ(depths, (std::vector<double>{2.0, 5.0}));
  auto leaves = MeasureStatistic(forest, TreeStatistic::kLeafCount);
  EXPECT_EQ(leaves, (std::vector<double>{3.0, 6.0}));
}

TEST(DetectByBandTest, ExtremeTreesAreLabeledMiddleIsUncertain) {
  // Depths: 1 (far below), 10 (far above), 5,5,5,5 (middle band).
  std::vector<tree::DecisionTree> trees{ChainTree(1),  ChainTree(10), ChainTree(5),
                                        ChainTree(5),  ChainTree(5),  ChainTree(5)};
  auto forest = forest::RandomForest::FromTrees(std::move(trees)).MoveValue();
  // Ground truth: small tree = 0, large tree = 1, middle = 0.
  auto truth = core::Signature::FromBits({0, 1, 0, 0, 0, 0}).MoveValue();
  auto report = DetectByBand(forest, TreeStatistic::kDepth, truth);
  EXPECT_EQ(report.guesses[0], BitGuess::kZero);
  EXPECT_EQ(report.guesses[1], BitGuess::kOne);
  for (size_t t = 2; t < 6; ++t) EXPECT_EQ(report.guesses[t], BitGuess::kUncertain);
  EXPECT_EQ(report.num_correct, 2u);
  EXPECT_EQ(report.num_wrong, 0u);
  EXPECT_EQ(report.num_uncertain, 4u);
}

TEST(DetectByThresholdTest, NoUncertaintyEverythingClassified) {
  std::vector<tree::DecisionTree> trees{ChainTree(2), ChainTree(8), ChainTree(3),
                                        ChainTree(9)};
  auto forest = forest::RandomForest::FromTrees(std::move(trees)).MoveValue();
  auto truth = core::Signature::FromBits({0, 1, 0, 1}).MoveValue();
  auto report = DetectByThreshold(forest, TreeStatistic::kDepth, truth);
  EXPECT_EQ(report.num_uncertain, 0u);
  EXPECT_EQ(report.num_correct + report.num_wrong, 4u);
  // Mean depth = 5.5: 2,3 -> bit 0; 8,9 -> bit 1 — all correct here.
  EXPECT_EQ(report.num_correct, 4u);
}

TEST(DetectionReportTest, MeanAndStdDevAreRecorded) {
  std::vector<tree::DecisionTree> trees{ChainTree(4), ChainTree(6)};
  auto forest = forest::RandomForest::FromTrees(std::move(trees)).MoveValue();
  auto truth = core::Signature::FromBits({0, 1}).MoveValue();
  auto report = DetectByThreshold(forest, TreeStatistic::kDepth, truth);
  EXPECT_DOUBLE_EQ(report.mean, 5.0);
  EXPECT_DOUBLE_EQ(report.stddev, 1.0);
}

TEST(MeasureErrorRatesTest, CountsPerTreeDisagreementsFromOneBatchedQuery) {
  // A forest of two constant trees: the all-+1 tree errs exactly on the
  // negative rows, the all--1 tree exactly on the positive rows.
  auto plus = DecisionTree::FromNodes({TreeNode{-1, 0, -1, -1, +1}}, 2).MoveValue();
  auto minus = DecisionTree::FromNodes({TreeNode{-1, 0, -1, -1, -1}}, 2).MoveValue();
  auto forest = forest::RandomForest::FromTrees({plus, minus}).MoveValue();
  data::Dataset reference(2);
  ASSERT_TRUE(reference.AddRow(std::vector<float>{0.1f, 0.1f}, +1).ok());
  ASSERT_TRUE(reference.AddRow(std::vector<float>{0.2f, 0.2f}, +1).ok());
  ASSERT_TRUE(reference.AddRow(std::vector<float>{0.3f, 0.3f}, +1).ok());
  ASSERT_TRUE(reference.AddRow(std::vector<float>{0.9f, 0.9f}, -1).ok());
  const auto rates = MeasureErrorRates(forest, reference);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 0.25);  // +1 tree misses the one negative row
  EXPECT_DOUBLE_EQ(rates[1], 0.75);  // -1 tree misses the three positive rows

  data::Dataset empty(2);
  const auto zero = MeasureErrorRates(forest, empty);
  EXPECT_EQ(zero, (std::vector<double>{0.0, 0.0}));
}

TEST(DetectByErrorRateTest, ThresholdsAtTheMeanLikeStrategy2) {
  auto plus = DecisionTree::FromNodes({TreeNode{-1, 0, -1, -1, +1}}, 2).MoveValue();
  auto minus = DecisionTree::FromNodes({TreeNode{-1, 0, -1, -1, -1}}, 2).MoveValue();
  auto forest = forest::RandomForest::FromTrees({plus, minus}).MoveValue();
  data::Dataset reference(2);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        reference.AddRow(std::vector<float>{0.1f * static_cast<float>(i), 0.1f}, +1)
            .ok());
  }
  ASSERT_TRUE(reference.AddRow(std::vector<float>{0.9f, 0.9f}, -1).ok());
  // Error rates 0.25 / 0.75, mean 0.5: tree 0 -> bit 0, tree 1 -> bit 1.
  auto truth = core::Signature::FromBits({0, 1}).MoveValue();
  const auto report = DetectByErrorRate(forest, reference, truth);
  EXPECT_EQ(report.statistic, TreeStatistic::kErrorRate);
  EXPECT_STREQ(TreeStatisticName(report.statistic), "error rate");
  ASSERT_EQ(report.guesses.size(), 2u);
  EXPECT_EQ(report.guesses[0], BitGuess::kZero);
  EXPECT_EQ(report.guesses[1], BitGuess::kOne);
  EXPECT_EQ(report.num_correct, 2u);
  EXPECT_EQ(report.num_wrong, 0u);
  EXPECT_EQ(report.num_uncertain, 0u);
  EXPECT_DOUBLE_EQ(report.mean, 0.5);
}

TEST(DetectionOnRealWatermarkTest, AttackFailsAgainstAdjustedModel) {
  // The paper's security claim (§4.2.1): with Adjust(H) the attacker cannot
  // reconstruct σ. Accept the attack as "failed" when the threshold strategy
  // recovers at most ~70% of bits (random guessing gives 50%).
  auto data = data::synthetic::MakeBreastCancerLike(50);
  Rng rng(51);
  auto sigma = core::Signature::Random(24, 0.5, &rng);
  core::WatermarkConfig config;
  config.seed = 52;
  config.grid.max_depth_grid = {6, -1};
  config.grid.num_folds = 2;
  core::Watermarker watermarker(config);
  auto wm = watermarker.CreateWatermark(data, sigma).MoveValue();

  for (auto stat : {TreeStatistic::kDepth, TreeStatistic::kLeafCount}) {
    auto threshold = DetectByThreshold(wm.model, stat, sigma);
    const double recovered = static_cast<double>(threshold.num_correct) /
                             static_cast<double>(sigma.length());
    EXPECT_LT(recovered, 0.8) << TreeStatisticName(stat);
    auto band = DetectByBand(wm.model, stat, sigma);
    // Band strategy must leave a large uncertain mass (Table 2's pattern).
    EXPECT_GT(band.num_uncertain, sigma.length() / 3) << TreeStatisticName(stat);
  }
}

}  // namespace
}  // namespace treewm::attacks
