// Tests for the gradient-boosting substrate (future-work extension).

#include "boosting/gbdt.h"

#include <gtest/gtest.h>

#include "data/sampling.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "io/ensemble_snapshot.h"
#include "predict/flat_ensemble.h"

namespace treewm::boosting {
namespace {

TEST(RegressionTreeConfigTest, Validation) {
  RegressionTreeConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.max_depth = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(RegressionTreeTest, FitsConstantTarget) {
  auto data = data::synthetic::MakeBlobs(1, 50, 3, 1.0);
  std::vector<double> targets(50, 2.5);
  auto tree = RegressionTree::Fit(data, targets, RegressionTreeConfig{}).MoveValue();
  EXPECT_EQ(tree.NumLeaves(), 1u);
  EXPECT_DOUBLE_EQ(tree.Predict(data.Row(0)), 2.5);
}

TEST(RegressionTreeTest, FitsStepFunction) {
  data::Dataset data(1);
  std::vector<double> targets;
  for (int i = 0; i < 40; ++i) {
    const float x = static_cast<float>(i) / 40.0f;
    ASSERT_TRUE(data.AddRow(std::vector<float>{x}, data::kPositive).ok());
    targets.push_back(x < 0.5f ? -1.0 : 3.0);
  }
  RegressionTreeConfig config;
  config.max_depth = 1;
  auto tree = RegressionTree::Fit(data, targets, config).MoveValue();
  EXPECT_EQ(tree.Depth(), 1);
  EXPECT_NEAR(tree.Predict(std::vector<float>{0.1f}), -1.0, 1e-9);
  EXPECT_NEAR(tree.Predict(std::vector<float>{0.9f}), 3.0, 1e-9);
}

TEST(RegressionTreeTest, DepthCapBinds) {
  auto data = data::synthetic::MakeXor(2, 300);
  std::vector<double> targets(data.num_rows());
  for (size_t i = 0; i < data.num_rows(); ++i) targets[i] = data.Label(i);
  RegressionTreeConfig config;
  config.max_depth = 2;
  auto tree = RegressionTree::Fit(data, targets, config).MoveValue();
  EXPECT_LE(tree.Depth(), 2);
}

TEST(RegressionTreeTest, SetLeafValueValidates) {
  auto data = data::synthetic::MakeBlobs(3, 60, 2, 2.0);
  std::vector<double> targets(60);
  for (size_t i = 0; i < 60; ++i) targets[i] = data.Label(i);
  auto tree = RegressionTree::Fit(data, targets, RegressionTreeConfig{}).MoveValue();
  int leaf = tree.LeafIndexFor(data.Row(0));
  EXPECT_TRUE(tree.SetLeafValue(leaf, 7.0).ok());
  EXPECT_DOUBLE_EQ(tree.Predict(data.Row(0)), 7.0);
  EXPECT_FALSE(tree.SetLeafValue(-1, 0.0).ok());
  if (tree.nodes()[0].feature != -1) {
    EXPECT_FALSE(tree.SetLeafValue(0, 0.0).ok());  // root is internal
  }
}

TEST(RegressionTreeTest, ValidatesInputs) {
  // Targets size != num_rows is InvalidArgument (never an out-of-range read
  // in the sweep), for the sort-once engine and the retained reference alike.
  auto data = data::synthetic::MakeBlobs(4, 20, 2, 1.0);
  for (size_t bad_size : {0u, 5u, 21u}) {
    const std::vector<double> targets(bad_size, 0.0);
    auto fast = RegressionTree::Fit(data, targets, RegressionTreeConfig{});
    ASSERT_FALSE(fast.ok()) << "targets size " << bad_size;
    EXPECT_EQ(fast.status().code(), StatusCode::kInvalidArgument);
    auto reference =
        RegressionTree::FitReference(data, targets, RegressionTreeConfig{});
    ASSERT_FALSE(reference.ok()) << "targets size " << bad_size;
    EXPECT_EQ(reference.status().code(), StatusCode::kInvalidArgument);
  }
  data::Dataset empty(2);
  EXPECT_FALSE(RegressionTree::Fit(empty, {}, RegressionTreeConfig{}).ok());
}

TEST(GbdtTest, GoldenEnsembleChecksum) {
  // The equivalence suites hold Fit to FitReference; this pins the model
  // itself, so an edit that moves both trainers together still shows.
  // Captured before the histogram engine was deleted; must match exactly.
  GbdtConfig config;
  config.num_trees = 20;
  config.tree.max_depth = 3;
  const Gbdt model =
      Gbdt::Fit(data::synthetic::MakeIjcnn1Like(5, 1500), config).MoveValue();
  EXPECT_EQ(io::EnsembleChecksum(predict::FlatEnsemble::FromRegressionTrees(
                model.trees(), model.initial_score(), model.learning_rate())),
            0xF53AEC7Cu);
  EXPECT_EQ(model.initial_score(), -0x1.193ea7aad030ap+1);
}

TEST(GbdtConfigTest, Validation) {
  GbdtConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_trees = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(GbdtTest, LearnsXorWhereStumpsFail) {
  // XOR needs interaction terms: depth-3 boosted trees handle it.
  auto data = data::synthetic::MakeXor(5, 800);
  Rng rng(6);
  auto tt = data::MakeTrainTest(data, 0.3, &rng).MoveValue();
  GbdtConfig config;
  config.num_trees = 60;
  auto model = Gbdt::Fit(tt.train, config).MoveValue();
  EXPECT_GT(model.Accuracy(tt.test), 0.95);
}

TEST(GbdtTest, StagedAccuracyImprovesWithRounds) {
  auto data = data::synthetic::MakeIjcnn1Like(7, 2000);
  Rng rng(8);
  auto tt = data::MakeTrainTest(data, 0.3, &rng).MoveValue();
  GbdtConfig config;
  config.num_trees = 80;
  auto model = Gbdt::Fit(tt.train, config).MoveValue();
  const double early = model.StagedAccuracy(tt.test, 5);
  const double late = model.StagedAccuracy(tt.test, 80);
  EXPECT_GE(late, early);
  EXPECT_GT(late, 0.9);
  // StagedAccuracy(all trees) equals Accuracy.
  EXPECT_DOUBLE_EQ(model.StagedAccuracy(tt.test, 80), model.Accuracy(tt.test));
}

TEST(GbdtTest, CompetitiveWithRandomForest) {
  // The headline of the ext_gbdt_baseline bench in miniature: GBDT is at
  // least in the same league as an RF of equal size on tabular data.
  auto data = data::synthetic::MakeBreastCancerLike(9);
  Rng rng(10);
  auto tt = data::MakeTrainTest(data, 0.3, &rng).MoveValue();
  GbdtConfig gbdt_config;
  gbdt_config.num_trees = 60;
  auto gbdt = Gbdt::Fit(tt.train, gbdt_config).MoveValue();
  forest::ForestConfig rf_config;
  rf_config.num_trees = 60;
  rf_config.seed = 11;
  auto rf = forest::RandomForest::Fit(tt.train, {}, rf_config).MoveValue();
  EXPECT_GT(gbdt.Accuracy(tt.test), rf.Accuracy(tt.test) - 0.05);
  EXPECT_GT(gbdt.Accuracy(tt.test), 0.9);
}

TEST(GbdtTest, ScoreIsLogOddsShaped) {
  auto data = data::synthetic::MakeBlobs(12, 400, 4, 3.0);
  Rng rng(13);
  auto tt = data::MakeTrainTest(data, 0.3, &rng).MoveValue();
  GbdtConfig config;
  config.num_trees = 40;
  auto model = Gbdt::Fit(tt.train, config).MoveValue();
  // Confidently separated data: positive instances get positive scores.
  size_t consistent = 0;
  for (size_t i = 0; i < tt.test.num_rows(); ++i) {
    const double score = model.Score(tt.test.Row(i));
    if ((score >= 0) == (tt.test.Label(i) > 0)) ++consistent;
  }
  EXPECT_GT(static_cast<double>(consistent) /
                static_cast<double>(tt.test.num_rows()),
            0.95);
}

TEST(GbdtTest, ImbalancedInitialScoreIsNegative) {
  auto data = data::synthetic::MakeIjcnn1Like(14, 1000);  // 10% positive
  GbdtConfig config;
  config.num_trees = 5;
  auto model = Gbdt::Fit(data, config).MoveValue();
  EXPECT_LT(model.initial_score(), 0.0);  // log-odds of 0.1
}

TEST(GbdtTest, ValidatesInputs) {
  data::Dataset empty(2);
  EXPECT_FALSE(Gbdt::Fit(empty, GbdtConfig{}).ok());
}

TEST(GbdtWatermarkabilityTest, NoteExplainsTheGap) {
  const std::string note = GbdtWatermarkabilityNote();
  EXPECT_NE(note.find("residual"), std::string::npos);
  EXPECT_NE(note.find("interleaved"), std::string::npos);
}

/// Sweep: every member-tree depth converges to a usable model.
class GbdtSweep : public ::testing::TestWithParam<int> {};

TEST_P(GbdtSweep, ReachesReasonableAccuracy) {
  const int max_depth = GetParam();
  auto data = data::synthetic::MakeBreastCancerLike(20);
  Rng rng(21);
  auto tt = data::MakeTrainTest(data, 0.3, &rng).MoveValue();
  GbdtConfig config;
  config.num_trees = 50;
  config.tree.max_depth = max_depth;
  auto model = Gbdt::Fit(tt.train, config).MoveValue();
  EXPECT_GT(model.Accuracy(tt.test), 0.88) << "depth=" << max_depth;
}

INSTANTIATE_TEST_SUITE_P(Hyperparameters, GbdtSweep, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace treewm::boosting
