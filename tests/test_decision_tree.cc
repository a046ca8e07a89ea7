// Unit and property tests for the CART decision tree.

#include "tree/decision_tree.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
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
    if (node.feature != -1) {
      EXPECT_EQ(node.feature, 1);
    }
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

/// A leaf and the constraints of its box, as ForEachLeaf hands it over.
struct LeafInfo {
  int node_index;
  int label;
  std::vector<DecisionTree::PathConstraint> constraints;
};

std::vector<LeafInfo> CollectLeaves(const DecisionTree& tree) {
  std::vector<LeafInfo> leaves;
  tree.ForEachLeaf(
      [&](int node, int label, std::span<const DecisionTree::PathConstraint> box) {
        leaves.push_back({node, label, {box.begin(), box.end()}});
      });
  return leaves;
}

TEST(ForEachLeafTest, BoxesPartitionInputs) {
  // Every training point must satisfy the constraints of exactly the leaf it
  // is routed to.
  data::Dataset d = data::synthetic::MakeXor(8, 150);
  auto tree = DecisionTree::Fit(d, {}, TreeConfig{}).MoveValue();
  auto leaves = CollectLeaves(tree);
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

TEST(ForEachLeafTest, ConstraintsAreMergedPerFeature) {
  data::Dataset d = data::synthetic::MakeXor(9, 300);
  auto tree = DecisionTree::Fit(d, {}, TreeConfig{}).MoveValue();
  for (const auto& leaf : CollectLeaves(tree)) {
    std::set<int> features;
    for (const auto& c : leaf.constraints) {
      EXPECT_TRUE(features.insert(c.feature).second)
          << "feature repeated in leaf constraints";
      EXPECT_LT(c.lo, c.hi);
    }
  }
}

/// The executable spec of ForEachLeaf: recursion that copies the path's
/// per-feature bounds into every child and visits the right subtree before
/// the left (the order the forgery solver branches in).
void ReferenceLeaves(const DecisionTree& tree, int node,
                     std::map<int, std::pair<double, double>> bounds,
                     std::vector<LeafInfo>* out) {
  const TreeNode& n = tree.nodes()[static_cast<size_t>(node)];
  if (n.feature == -1) {
    LeafInfo leaf{node, n.label, {}};
    for (const auto& [f, b] : bounds) leaf.constraints.push_back({f, b.first, b.second});
    out->push_back(std::move(leaf));
    return;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double v = static_cast<double>(n.threshold);
  auto right = bounds;
  auto [r, r_first] = right.try_emplace(n.feature, v, kInf);
  if (!r_first) r->second.first = std::max(r->second.first, v);
  ReferenceLeaves(tree, n.right, std::move(right), out);
  auto [l, l_first] = bounds.try_emplace(n.feature, -kInf, v);
  if (!l_first) l->second.second = std::min(l->second.second, v);
  ReferenceLeaves(tree, n.left, std::move(bounds), out);
}

/// A random tree over `num_features` features with thresholds on a coarse
/// grid, so paths test one feature again and again, with nested, repeated
/// and disjoint bounds.
DecisionTree RandomTree(Rng* rng, size_t num_features, int max_depth) {
  std::vector<TreeNode> nodes(1);
  std::vector<std::pair<size_t, int>> open{{0, 0}};  // node, depth
  while (!open.empty()) {
    const auto [i, depth] = open.back();
    open.pop_back();
    if (depth == max_depth || (depth > 0 && rng->UniformReal() < 0.2)) {
      nodes[i] = TreeNode{-1, 0.0f, -1, -1, rng->UniformReal() < 0.5 ? -1 : +1};
      continue;
    }
    const auto left = static_cast<int>(nodes.size());
    nodes.resize(nodes.size() + 2);
    const auto threshold = static_cast<float>(rng->UniformInt(8)) / 8.0f;
    nodes[i] = TreeNode{static_cast<int>(rng->UniformInt(num_features)), threshold,
                        left, left + 1, +1};
    open.push_back({static_cast<size_t>(left), depth + 1});
    open.push_back({static_cast<size_t>(left) + 1, depth + 1});
  }
  return DecisionTree::FromNodes(std::move(nodes), num_features).MoveValue();
}

void ExpectSameLeaves(const DecisionTree& tree) {
  std::vector<LeafInfo> expected;
  ReferenceLeaves(tree, 0, {}, &expected);
  const auto leaves = CollectLeaves(tree);
  ASSERT_EQ(leaves.size(), expected.size());
  for (size_t k = 0; k < leaves.size(); ++k) {
    SCOPED_TRACE("leaf " + std::to_string(k));
    EXPECT_EQ(leaves[k].node_index, expected[k].node_index);
    EXPECT_EQ(leaves[k].label, expected[k].label);
    ASSERT_EQ(leaves[k].constraints.size(), expected[k].constraints.size());
    for (size_t j = 0; j < leaves[k].constraints.size(); ++j) {
      EXPECT_EQ(leaves[k].constraints[j].feature, expected[k].constraints[j].feature);
      EXPECT_EQ(leaves[k].constraints[j].lo, expected[k].constraints[j].lo);
      EXPECT_EQ(leaves[k].constraints[j].hi, expected[k].constraints[j].hi);
    }
  }
}

TEST(ForEachLeafTest, MatchesRecursiveReferenceInOrderAndBounds) {
  Rng rng(157);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("random tree " + std::to_string(trial));
    ExpectSameLeaves(RandomTree(&rng, 1 + trial % 4, 2 + trial % 7));
  }
  // A deep trained tree: many leaves, long paths.
  data::Dataset d = data::synthetic::MakeIjcnn1Like(163, 1500);
  ExpectSameLeaves(DecisionTree::Fit(d, {}, TreeConfig{}).MoveValue());
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
  if (p.max_depth != -1) {
    EXPECT_LE(tree.Depth(), p.max_depth);
  }
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
