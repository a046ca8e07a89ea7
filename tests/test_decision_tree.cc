// Unit and property tests for the CART decision tree.

#include "tree/decision_tree.h"

#include <gtest/gtest.h>

#include <cmath>

#include "data/synthetic.h"

namespace treewm::tree {
namespace {

/// Fraction of rows of `d` that `tree` labels correctly.
double AccuracyOf(const DecisionTree& tree, const data::Dataset& d) {
  size_t correct = 0;
  for (size_t i = 0; i < d.num_rows(); ++i) {
    if (tree.Predict(d.Row(i)) == d.Label(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(d.num_rows());
}

data::Dataset Separable() {
  data::Dataset d(2);
  EXPECT_TRUE(d.AddRow(std::vector<float>{0.1f, 0.5f}, -1).ok());
  EXPECT_TRUE(d.AddRow(std::vector<float>{0.2f, 0.4f}, -1).ok());
  EXPECT_TRUE(d.AddRow(std::vector<float>{0.8f, 0.6f}, +1).ok());
  EXPECT_TRUE(d.AddRow(std::vector<float>{0.9f, 0.3f}, +1).ok());
  return d;
}

TEST(TreeConfigTest, Validation) {
  TreeConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.max_depth = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.max_depth = -1;
  config.max_leaf_nodes = 1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(DecisionTreeTest, FitsSeparableDataPerfectly) {
  data::Dataset d = Separable();
  auto tree = DecisionTree::Fit(d, {}, TreeConfig{});
  ASSERT_TRUE(tree.ok());
  EXPECT_DOUBLE_EQ(AccuracyOf(tree.value(), d), 1.0);
  EXPECT_EQ(tree.value().Depth(), 1);
  EXPECT_EQ(tree.value().NumLeaves(), 2u);
}

TEST(DecisionTreeTest, PureDataYieldsSingleLeaf) {
  data::Dataset d(1);
  ASSERT_TRUE(d.AddRow(std::vector<float>{0.1f}, +1).ok());
  ASSERT_TRUE(d.AddRow(std::vector<float>{0.9f}, +1).ok());
  auto tree = DecisionTree::Fit(d, {}, TreeConfig{}).MoveValue();
  EXPECT_EQ(tree.NumNodes(), 1u);
  EXPECT_EQ(tree.Predict(std::vector<float>{0.5f}), +1);
}

TEST(DecisionTreeTest, RejectsEmptyDataset) {
  data::Dataset d(2);
  EXPECT_FALSE(DecisionTree::Fit(d, {}, TreeConfig{}).ok());
}

TEST(DecisionTreeTest, RejectsBadWeightVector) {
  // Non-empty weights with size != num_rows fail with InvalidArgument
  // before training (never index out of range in the splitter); both the
  // sort-once engine and the retained reference enforce it.
  data::Dataset d = Separable();
  for (size_t bad_size : {1u, 3u, 5u}) {
    const std::vector<double> w(bad_size, 1.0);
    auto fast = DecisionTree::Fit(d, w, TreeConfig{});
    ASSERT_FALSE(fast.ok()) << "weights size " << bad_size;
    EXPECT_EQ(fast.status().code(), StatusCode::kInvalidArgument);
    auto reference = DecisionTree::FitReference(d, w, TreeConfig{});
    ASSERT_FALSE(reference.ok()) << "weights size " << bad_size;
    EXPECT_EQ(reference.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(DecisionTreeTest, RejectsOutOfRangeFeatureSubset) {
  data::Dataset d = Separable();
  EXPECT_FALSE(DecisionTree::Fit(d, {}, TreeConfig{}, {5}).ok());
  EXPECT_FALSE(DecisionTree::Fit(d, {}, TreeConfig{}, {-1}).ok());
}

TEST(DecisionTreeTest, MaxDepthBinds) {
  data::Dataset d = data::synthetic::MakeXor(1, 400);
  TreeConfig config;
  config.max_depth = 3;
  auto tree = DecisionTree::Fit(d, {}, config).MoveValue();
  EXPECT_LE(tree.Depth(), 3);
}

TEST(DecisionTreeTest, MaxLeafNodesBinds) {
  data::Dataset d = data::synthetic::MakeXor(2, 400);
  TreeConfig config;
  config.max_leaf_nodes = 5;
  auto tree = DecisionTree::Fit(d, {}, config).MoveValue();
  EXPECT_LE(tree.NumLeaves(), 5u);
}

TEST(DecisionTreeTest, BestFirstGrowthPicksHighestGainSplits) {
  // With a tight leaf budget, the tree must still find the dominant split.
  data::Dataset d = data::synthetic::MakeBlobs(3, 300, 4, 3.0);
  TreeConfig config;
  config.max_leaf_nodes = 2;
  auto tree = DecisionTree::Fit(d, {}, config).MoveValue();
  EXPECT_EQ(tree.NumLeaves(), 2u);
  EXPECT_GT(AccuracyOf(tree, d), 0.9);
}

TEST(DecisionTreeTest, SampleWeightsOverrideMajorities) {
  // Same point twice with conflicting labels: weight decides the leaf label.
  data::Dataset d(1);
  ASSERT_TRUE(d.AddRow(std::vector<float>{0.5f}, +1).ok());
  ASSERT_TRUE(d.AddRow(std::vector<float>{0.5f}, -1).ok());
  auto plus = DecisionTree::Fit(d, {5.0, 1.0}, TreeConfig{}).MoveValue();
  EXPECT_EQ(plus.Predict(std::vector<float>{0.5f}), +1);
  auto minus = DecisionTree::Fit(d, {1.0, 5.0}, TreeConfig{}).MoveValue();
  EXPECT_EQ(minus.Predict(std::vector<float>{0.5f}), -1);
}

TEST(DecisionTreeTest, FeatureSubsetIsRespected) {
  // Label depends only on feature 0; a tree confined to feature 1 must not
  // split on feature 0.
  data::Dataset d = Separable();
  auto tree = DecisionTree::Fit(d, {}, TreeConfig{}, {1}).MoveValue();
  for (const TreeNode& node : tree.nodes()) {
    if (node.feature != -1) EXPECT_EQ(node.feature, 1);
  }
  EXPECT_EQ(tree.feature_subset(), std::vector<int>{1});
}

TEST(DecisionTreeTest, DeterministicAcrossRuns) {
  data::Dataset d = data::synthetic::MakeBlobs(6, 500, 6, 1.0);
  auto a = DecisionTree::Fit(d, {}, TreeConfig{}).MoveValue();
  auto b = DecisionTree::Fit(d, {}, TreeConfig{}).MoveValue();
  EXPECT_TRUE(a.StructurallyEqual(b));
}

TEST(DecisionTreeTest, LeafIndexForReachesALeaf) {
  data::Dataset d = Separable();
  auto tree = DecisionTree::Fit(d, {}, TreeConfig{}).MoveValue();
  for (size_t i = 0; i < d.num_rows(); ++i) {
    const int leaf = tree.LeafIndexFor(d.Row(i));
    EXPECT_EQ(tree.nodes()[static_cast<size_t>(leaf)].feature, -1);
  }
}

TEST(ExtractLeavesTest, BoxesPartitionInputs) {
  // Every training point must satisfy the constraints of exactly the leaf it
  // is routed to.
  data::Dataset d = data::synthetic::MakeXor(8, 150);
  auto tree = DecisionTree::Fit(d, {}, TreeConfig{}).MoveValue();
  auto leaves = tree.ExtractLeaves();
  EXPECT_EQ(leaves.size(), tree.NumLeaves());
  for (size_t i = 0; i < d.num_rows(); ++i) {
    const int routed = tree.LeafIndexFor(d.Row(i));
    size_t containing = 0;
    for (const auto& leaf : leaves) {
      bool inside = true;
      for (const auto& c : leaf.constraints) {
        const double x = d.At(i, static_cast<size_t>(c.feature));
        if (!(x > c.lo && x <= c.hi)) {
          inside = false;
          break;
        }
      }
      if (inside) {
        ++containing;
        EXPECT_EQ(leaf.node_index, routed);
        EXPECT_EQ(leaf.label,
                  tree.nodes()[static_cast<size_t>(routed)].label);
      }
    }
    EXPECT_EQ(containing, 1u);  // boxes tile the space
  }
}

TEST(ExtractLeavesTest, ConstraintsAreMergedPerFeature) {
  data::Dataset d = data::synthetic::MakeXor(9, 300);
  auto tree = DecisionTree::Fit(d, {}, TreeConfig{}).MoveValue();
  for (const auto& leaf : tree.ExtractLeaves()) {
    std::set<int> features;
    for (const auto& c : leaf.constraints) {
      EXPECT_TRUE(features.insert(c.feature).second)
          << "feature repeated in leaf constraints";
      EXPECT_LT(c.lo, c.hi);
    }
  }
}

TEST(TreeJsonTest, RoundTripPreservesStructureAndPredictions) {
  data::Dataset d = data::synthetic::MakeBlobs(10, 200, 4, 1.2);
  auto tree = DecisionTree::Fit(d, {}, TreeConfig{}, {0, 2}).MoveValue();
  auto parsed = DecisionTree::FromJson(tree.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().StructurallyEqual(tree));
  EXPECT_EQ(parsed.value().feature_subset(), tree.feature_subset());
  for (size_t i = 0; i < d.num_rows(); ++i) {
    EXPECT_EQ(parsed.value().Predict(d.Row(i)), tree.Predict(d.Row(i)));
  }
}

TEST(FromNodesTest, ValidatesStructure) {
  // A single leaf is fine.
  EXPECT_TRUE(DecisionTree::FromNodes({TreeNode{-1, 0, -1, -1, +1}}, 3).ok());
  // Leaf with label 0 is invalid.
  EXPECT_FALSE(DecisionTree::FromNodes({TreeNode{-1, 0, -1, -1, 0}}, 3).ok());
  // Internal node with child pointing backwards.
  EXPECT_FALSE(
      DecisionTree::FromNodes({TreeNode{0, 0.5f, 0, 1, 0},
                               TreeNode{-1, 0, -1, -1, +1}},
                              3)
          .ok());
  // Feature out of range.
  EXPECT_FALSE(DecisionTree::FromNodes({TreeNode{7, 0.5f, 1, 2, 0},
                                        TreeNode{-1, 0, -1, -1, +1},
                                        TreeNode{-1, 0, -1, -1, -1}},
                                       3)
                   .ok());
  // Orphan node (never referenced).
  EXPECT_FALSE(DecisionTree::FromNodes({TreeNode{-1, 0, -1, -1, +1},
                                        TreeNode{-1, 0, -1, -1, -1}},
                                       3)
                   .ok());
  // Proper 3-node tree.
  EXPECT_TRUE(DecisionTree::FromNodes({TreeNode{0, 0.5f, 1, 2, 0},
                                       TreeNode{-1, 0, -1, -1, -1},
                                       TreeNode{-1, 0, -1, -1, +1}},
                                      3)
                  .ok());
}

/// Property sweep: depth/leaf limits hold simultaneously across settings.
struct LimitParam {
  int max_depth;
  int max_leaf_nodes;
};

class TreeLimitSweep : public ::testing::TestWithParam<LimitParam> {};

TEST_P(TreeLimitSweep, LimitsHoldAndTreeStaysUseful) {
  const LimitParam p = GetParam();
  data::Dataset d = data::synthetic::MakeBlobs(11, 600, 5, 2.0);
  TreeConfig config;
  config.max_depth = p.max_depth;
  config.max_leaf_nodes = p.max_leaf_nodes;
  auto tree = DecisionTree::Fit(d, {}, config).MoveValue();
  if (p.max_depth != -1) EXPECT_LE(tree.Depth(), p.max_depth);
  if (p.max_leaf_nodes != -1) {
    EXPECT_LE(tree.NumLeaves(), static_cast<size_t>(p.max_leaf_nodes));
  }
  EXPECT_GT(AccuracyOf(tree, d), 0.85);  // blobs at separation 2 are easy
}

INSTANTIATE_TEST_SUITE_P(Limits, TreeLimitSweep,
                         ::testing::Values(LimitParam{2, -1}, LimitParam{4, -1},
                                           LimitParam{-1, 4}, LimitParam{-1, 16},
                                           LimitParam{3, 6}, LimitParam{-1, -1}));

}  // namespace
}  // namespace treewm::tree
