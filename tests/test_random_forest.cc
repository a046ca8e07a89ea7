// Unit tests for the random forest.

#include "forest/random_forest.h"

#include <gtest/gtest.h>

#include <set>

#include "common/fault_injection.h"
#include "data/synthetic.h"

namespace treewm::forest {
namespace {

TEST(ForestConfigTest, Validation) {
  ForestConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.num_trees = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.num_trees = 5;
  config.feature_fraction = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.feature_fraction = 0.5;
  config.tree.max_depth = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(RandomForestTest, FitsAndPredicts) {
  auto d = data::synthetic::MakeBlobs(1, 400, 6, 2.5);
  ForestConfig config;
  config.num_trees = 11;
  config.seed = 3;
  auto forest = RandomForest::Fit(d, {}, config).MoveValue();
  EXPECT_EQ(forest.num_trees(), 11u);
  EXPECT_EQ(forest.num_features(), 6u);
  EXPECT_GT(forest.Accuracy(d), 0.95);
}

TEST(RandomForestTest, PredictAllHasOneVotePerTree) {
  auto d = data::synthetic::MakeBlobs(2, 100, 4, 2.0);
  ForestConfig config;
  config.num_trees = 7;
  auto forest = RandomForest::Fit(d, {}, config).MoveValue();
  auto votes = forest.PredictAll(d.Row(0));
  EXPECT_EQ(votes.size(), 7u);
  for (int v : votes) EXPECT_TRUE(v == +1 || v == -1);
  // Per-tree votes must match querying each tree directly.
  for (size_t t = 0; t < forest.num_trees(); ++t) {
    EXPECT_EQ(votes[t], forest.trees()[t].Predict(d.Row(0)));
  }
}

TEST(RandomForestTest, MajorityVoteConsistentWithPredictAll) {
  auto d = data::synthetic::MakeBlobs(3, 150, 4, 0.8);
  ForestConfig config;
  config.num_trees = 9;
  auto forest = RandomForest::Fit(d, {}, config).MoveValue();
  for (size_t i = 0; i < 20; ++i) {
    auto votes = forest.PredictAll(d.Row(i));
    int sum = 0;
    for (int v : votes) sum += v;
    const int expected = sum >= 0 ? +1 : -1;
    EXPECT_EQ(forest.Predict(d.Row(i)), expected);
  }
}

TEST(RandomForestTest, DeterministicAcrossThreadCounts) {
  auto d = data::synthetic::MakeBlobs(4, 300, 8, 1.0);
  ForestConfig serial;
  serial.num_trees = 8;
  serial.seed = 5;
  serial.pool = nullptr;
  ThreadPool four(4);
  ForestConfig parallel = serial;
  parallel.pool = &four;
  auto a = RandomForest::Fit(d, {}, serial).MoveValue();
  auto b = RandomForest::Fit(d, {}, parallel).MoveValue();
  ASSERT_EQ(a.num_trees(), b.num_trees());
  for (size_t t = 0; t < a.num_trees(); ++t) {
    EXPECT_TRUE(a.trees()[t].StructurallyEqual(b.trees()[t])) << "tree " << t;
  }
}

TEST(RandomForestTest, SerialFitNeverSubmitsToAPool) {
  // pool = nullptr is serial end to end: the column sort or binning pass
  // and every tree. Every ThreadPool::Submit passes the
  // thread_pool.submit.reject fault site; armed at probability 0 it only
  // counts.
  auto d = data::synthetic::MakeBlobs(6, 300, 8, 1.0);
  FaultSpec count_only;
  count_only.probability = 0.0;
  for (tree::TrainerMode mode : {tree::TrainerMode::kExact, tree::TrainerMode::kHistogram}) {
    ForestConfig config;
    config.num_trees = 8;
    config.tree.trainer_mode = mode;
    config.pool = nullptr;
    ScopedFault submits("thread_pool.submit.reject", count_only);
    ASSERT_TRUE(RandomForest::Fit(d, {}, config).ok());
    EXPECT_EQ(submits.hits(), 0u) << "histogram=" << (mode == tree::TrainerMode::kHistogram);
  }
}

TEST(RandomForestTest, SeedChangesFeatureSubsets) {
  auto d = data::synthetic::MakeBlobs(5, 200, 10, 1.0);
  ForestConfig c1;
  c1.num_trees = 4;
  c1.seed = 1;
  ForestConfig c2 = c1;
  c2.seed = 2;
  auto a = RandomForest::Fit(d, {}, c1).MoveValue();
  auto b = RandomForest::Fit(d, {}, c2).MoveValue();
  bool any_difference = false;
  for (size_t t = 0; t < 4; ++t) {
    if (a.trees()[t].feature_subset() != b.trees()[t].feature_subset()) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(RandomForestTest, DefaultFeatureFractionIsSqrt) {
  auto d = data::synthetic::MakeBlobs(6, 100, 16, 2.0);
  ForestConfig config;
  config.num_trees = 3;
  auto forest = RandomForest::Fit(d, {}, config).MoveValue();
  for (const auto& t : forest.trees()) {
    EXPECT_EQ(t.feature_subset().size(), 4u);  // sqrt(16)
  }
}

TEST(RandomForestTest, ExplicitFeatureFraction) {
  auto d = data::synthetic::MakeBlobs(7, 100, 10, 2.0);
  ForestConfig config;
  config.num_trees = 3;
  config.feature_fraction = 0.5;
  auto forest = RandomForest::Fit(d, {}, config).MoveValue();
  for (const auto& t : forest.trees()) {
    EXPECT_EQ(t.feature_subset().size(), 5u);
  }
}

TEST(RandomForestTest, WeightsReachEveryTree) {
  // Duplicate conflicting points; weights force all trees to agree.
  data::Dataset d(2);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(d.AddRow(std::vector<float>{0.5f, 0.5f}, +1).ok());
    ASSERT_TRUE(d.AddRow(std::vector<float>{0.5f, 0.5f}, -1).ok());
  }
  std::vector<double> weights(d.num_rows(), 1.0);
  for (size_t i = 0; i < d.num_rows(); i += 2) weights[i] = 10.0;  // favor +1
  ForestConfig config;
  config.num_trees = 5;
  auto forest = RandomForest::Fit(d, weights, config).MoveValue();
  for (int v : forest.PredictAll(d.Row(0))) EXPECT_EQ(v, +1);
}

TEST(RandomForestTest, RejectsBadWeightVectorBeforeTraining) {
  // A non-empty weight vector whose size != num_rows must fail fast with
  // InvalidArgument at the forest level (before any column sort or thread
  // fan-out), never index out of range inside the splitter.
  data::Dataset d(2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(d.AddRow(std::vector<float>{0.1f * static_cast<float>(i), 0.5f},
                         i % 2 == 0 ? +1 : -1)
                    .ok());
  }
  ForestConfig config;
  config.num_trees = 3;
  for (size_t bad_size : {1u, 9u, 11u}) {
    auto result = RandomForest::Fit(d, std::vector<double>(bad_size, 1.0), config);
    ASSERT_FALSE(result.ok()) << "weights size " << bad_size;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(RandomForestTest, FromTreesValidates) {
  EXPECT_FALSE(RandomForest::FromTrees({}).ok());
  auto t1 = tree::DecisionTree::FromNodes({tree::TreeNode{-1, 0, -1, -1, +1}}, 2)
                .MoveValue();
  auto t2 = tree::DecisionTree::FromNodes({tree::TreeNode{-1, 0, -1, -1, -1}}, 3)
                .MoveValue();
  EXPECT_FALSE(RandomForest::FromTrees({t1, t2}).ok());  // feature mismatch
  auto ok = RandomForest::FromTrees({t1, t1});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().num_trees(), 2u);
}

TEST(RandomForestTest, TieBreaksPositive) {
  auto plus = tree::DecisionTree::FromNodes({tree::TreeNode{-1, 0, -1, -1, +1}}, 1)
                  .MoveValue();
  auto minus = tree::DecisionTree::FromNodes({tree::TreeNode{-1, 0, -1, -1, -1}}, 1)
                   .MoveValue();
  auto forest = RandomForest::FromTrees({plus, minus}).MoveValue();
  EXPECT_EQ(forest.Predict(std::vector<float>{0.0f}), data::kPositive);
}

TEST(RandomForestTest, StatisticsVectors) {
  auto d = data::synthetic::MakeBlobs(8, 300, 6, 1.0);
  ForestConfig config;
  config.num_trees = 6;
  auto forest = RandomForest::Fit(d, {}, config).MoveValue();
  auto depths = forest.TreeDepths();
  auto leaves = forest.TreeLeafCounts();
  ASSERT_EQ(depths.size(), 6u);
  ASSERT_EQ(leaves.size(), 6u);
  for (size_t t = 0; t < 6; ++t) {
    EXPECT_DOUBLE_EQ(depths[t], forest.trees()[t].Depth());
    EXPECT_DOUBLE_EQ(leaves[t], forest.trees()[t].NumLeaves());
  }
}

TEST(ForestJsonTest, RoundTripPreservesPredictions) {
  auto d = data::synthetic::MakeBlobs(9, 120, 5, 1.5);
  ForestConfig config;
  config.num_trees = 4;
  auto forest = RandomForest::Fit(d, {}, config).MoveValue();
  auto parsed = RandomForest::FromJson(forest.ToJson());
  ASSERT_TRUE(parsed.ok());
  for (size_t i = 0; i < d.num_rows(); ++i) {
    EXPECT_EQ(parsed.value().PredictAll(d.Row(i)), forest.PredictAll(d.Row(i)));
  }
}

TEST(PredictAllVotesTest, MatchesPerRowCalls) {
  auto d = data::synthetic::MakeBlobs(10, 50, 4, 1.0);
  ForestConfig config;
  config.num_trees = 3;
  auto forest = RandomForest::Fit(d, {}, config).MoveValue();
  const predict::VoteMatrix batch = forest.PredictAllVotes(d);
  ASSERT_EQ(batch.num_rows(), d.num_rows());
  ASSERT_EQ(batch.num_trees(), forest.num_trees());
  for (size_t i = 0; i < d.num_rows(); ++i) {
    const std::vector<int> expected = forest.PredictAll(d.Row(i));
    for (size_t t = 0; t < forest.num_trees(); ++t) {
      EXPECT_EQ(batch.vote(i, t), expected[t]) << "row " << i << " tree " << t;
    }
  }
}

}  // namespace
}  // namespace treewm::forest
