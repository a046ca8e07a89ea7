// Tests for the synthetic dataset generators (the paper-dataset stand-ins).

#include "data/synthetic.h"

#include <gtest/gtest.h>

#include "data/sampling.h"
#include "forest/random_forest.h"

namespace treewm::data::synthetic {
namespace {

TEST(Mnist26LikeTest, ShapeAndDistributionMatchTable1) {
  Dataset d = MakeMnist26Like(1, 500);
  EXPECT_EQ(d.num_features(), 784u);
  EXPECT_EQ(d.num_rows(), 500u);
  EXPECT_NEAR(d.PositiveFraction(), 0.51, 0.01);
  EXPECT_TRUE(d.AllValuesWithin(0.0f, 1.0f));
  EXPECT_EQ(d.name(), "mnist2-6-like");
}

TEST(Mnist26LikeTest, DefaultSizeIsPaperSize) {
  // Only check the constant, not a 13k-row generation (kept fast).
  EXPECT_EQ(kMnist26Rows, 13866u);
}

TEST(Mnist26LikeTest, DeterministicInSeed) {
  Dataset a = MakeMnist26Like(7, 50);
  Dataset b = MakeMnist26Like(7, 50);
  ASSERT_EQ(a.num_rows(), b.num_rows());
  EXPECT_EQ(a.values(), b.values());
  EXPECT_EQ(a.labels(), b.labels());
  Dataset c = MakeMnist26Like(8, 50);
  EXPECT_NE(a.values(), c.values());
}

TEST(BreastCancerLikeTest, ShapeAndDistributionMatchTable1) {
  Dataset d = MakeBreastCancerLike(2);
  EXPECT_EQ(d.num_features(), 30u);
  EXPECT_EQ(d.num_rows(), kBreastCancerRows);
  EXPECT_EQ(d.num_rows(), 569u);
  EXPECT_NEAR(d.PositiveFraction(), 0.63, 0.01);
  EXPECT_TRUE(d.AllValuesWithin(0.0f, 1.0f));
}

TEST(Ijcnn1LikeTest, ShapeAndDistributionMatchTable1) {
  Dataset d = MakeIjcnn1Like(3, 2000);
  EXPECT_EQ(d.num_features(), 22u);
  EXPECT_EQ(d.num_rows(), 2000u);
  EXPECT_NEAR(d.PositiveFraction(), 0.10, 0.01);
  EXPECT_TRUE(d.AllValuesWithin(0.0f, 1.0f));
}

TEST(BlobsTest, SeparationControlsDifficulty) {
  Dataset easy = MakeBlobs(4, 400, 5, /*class_separation=*/4.0);
  Dataset hard = MakeBlobs(4, 400, 5, /*class_separation=*/0.2);
  forest::ForestConfig config;
  config.num_trees = 15;
  config.seed = 1;
  Rng rng(5);
  auto easy_tt = MakeTrainTest(easy, 0.3, &rng).MoveValue();
  auto hard_tt = MakeTrainTest(hard, 0.3, &rng).MoveValue();
  auto easy_rf = forest::RandomForest::Fit(easy_tt.train, {}, config).MoveValue();
  auto hard_rf = forest::RandomForest::Fit(hard_tt.train, {}, config).MoveValue();
  EXPECT_GT(easy_rf.Accuracy(easy_tt.test), hard_rf.Accuracy(hard_tt.test));
  EXPECT_GT(easy_rf.Accuracy(easy_tt.test), 0.95);
}

TEST(XorTest, RequiresDepthTwo) {
  Dataset d = MakeXor(5, 600);
  EXPECT_NEAR(d.PositiveFraction(), 0.5, 0.1);
  // A depth-1 stump cannot learn XOR...
  tree::TreeConfig stump;
  stump.max_depth = 1;
  auto stump_tree = tree::DecisionTree::Fit(d, {}, stump).MoveValue();
  EXPECT_LT(forest::RandomForest::FromTrees({stump_tree}).MoveValue().Accuracy(d), 0.7);
  // ...but an unconstrained tree can.
  tree::TreeConfig deep;
  auto deep_tree = tree::DecisionTree::Fit(d, {}, deep).MoveValue();
  EXPECT_GT(forest::RandomForest::FromTrees({deep_tree}).MoveValue().Accuracy(d), 0.95);
}

TEST(MakeByNameTest, DispatchesAllPaperNames) {
  for (const std::string& name : KnownDatasetNames()) {
    auto d = MakeByName(name, 1, 100);
    ASSERT_TRUE(d.ok()) << name;
    EXPECT_EQ(d.value().num_rows(), 100u);
  }
  EXPECT_FALSE(MakeByName("imagenet", 1).ok());
}

TEST(MakeByNameTest, ZeroRowsMeansTableOneSize) {
  auto d = MakeByName("breast-cancer", 1, 0);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().num_rows(), kBreastCancerRows);
}

TEST(RenderImageAsciiTest, ProducesGrid) {
  Dataset d = MakeMnist26Like(9, 1);
  std::vector<float> pixels(d.Row(0).begin(), d.Row(0).end());
  const std::string art = RenderImageAscii(pixels);
  // 28 rows of 28 chars + newline each.
  EXPECT_EQ(art.size(), 28u * 29u);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 28);
}

/// Learnability sweep: every paper dataset must be in the accuracy regime
/// the paper reports (within synthetic-data tolerance).
class LearnabilitySweep : public ::testing::TestWithParam<const char*> {};

TEST_P(LearnabilitySweep, ForestReachesPaperRegime) {
  const std::string name = GetParam();
  auto data = MakeByName(name, 42, name == "breast-cancer" ? 0 : 2500).MoveValue();
  Rng rng(7);
  auto tt = data::MakeTrainTest(data, 0.3, &rng).MoveValue();
  forest::ForestConfig config;
  config.num_trees = 31;
  config.seed = 3;
  auto rf = forest::RandomForest::Fit(tt.train, {}, config).MoveValue();
  EXPECT_GT(rf.Accuracy(tt.test), 0.90) << name;
}

INSTANTIATE_TEST_SUITE_P(PaperDatasets, LearnabilitySweep,
                         ::testing::Values("mnist2-6", "breast-cancer", "ijcnn1"));

}  // namespace
}  // namespace treewm::data::synthetic
