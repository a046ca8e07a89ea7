// Binary classification decision tree (weighted CART).
//
// Matches the paper's definition (§2): a tree is a leaf L(y) or an internal
// node N(f <= v, t_l, t_r); traversal goes left when x_f <= v. Trees take
// the hyper-parameters Algorithm 1 manipulates (max depth, max leaf count),
// split on weighted Gini impurity, honor per-instance sample weights, and can
// grow best-first (needed when max_leaf_nodes binds, as after Adjust(H)).
// Within H, any node holding both classes may split, and a child may hold a
// single row (sklearn's min_samples_split 2, min_samples_leaf 1).

#ifndef TREEWM_TREE_DECISION_TREE_H_
#define TREEWM_TREE_DECISION_TREE_H_

#include <span>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "data/dataset.h"
#include "tree/sorted_columns.h"

namespace treewm::tree {

/// One node of a flattened tree. Leaves have feature == -1.
struct TreeNode {
  int feature = -1;        ///< split feature; -1 marks a leaf
  float threshold = 0.0f;  ///< split threshold (go left iff x_f <= threshold)
  int left = -1;           ///< index of left child (-1 for leaves)
  int right = -1;          ///< index of right child (-1 for leaves)
  int label = 0;           ///< leaf prediction (+1/-1); majority label otherwise
};

/// Tree induction hyper-parameters (the H of Algorithm 1).
struct TreeConfig {
  /// Maximum tree depth; -1 means unlimited. Root has depth 0.
  int max_depth = -1;
  /// Maximum number of leaves; -1 means unlimited. When set, growth is
  /// best-first by impurity decrease (the sklearn semantics).
  int max_leaf_nodes = -1;

  /// Validates parameter ranges.
  [[nodiscard]] Status Validate() const;
};

/// An immutable trained decision tree.
class DecisionTree {
 public:
  /// Trains a tree on `dataset` with per-row `weights` (empty means all 1.0),
  /// restricted to splitting on `feature_subset` (empty means all features).
  /// The tree grows serially on the calling thread.
  ///
  /// Runs on the sort-once column-index engine (sorted_columns.h +
  /// trainer_core.h). Pass a prebuilt `sorted` for the same dataset to
  /// amortize the one-time column sort across many trees (forests, boosting
  /// rounds, weight-boosting retrains); nullptr builds it internally on
  /// ThreadPool::Global(). A `sorted` built for another dataset shape is an
  /// InvalidArgument. Bit-identical to FitReference by the trainer
  /// equivalence contract.
  [[nodiscard]] static Result<DecisionTree> Fit(const data::Dataset& dataset,
                                  const std::vector<double>& weights,
                                  const TreeConfig& config,
                                  const std::vector<int>& feature_subset = {},
                                  const SortedColumns* sorted = nullptr);

  /// The retained naive trainer (per-node re-sorting Splitter) — the
  /// executable specification Fit is property-tested against, kept the way
  /// predict/reference.h keeps the scalar inference loops.
  [[nodiscard]] static Result<DecisionTree> FitReference(const data::Dataset& dataset,
                                           const std::vector<double>& weights,
                                           const TreeConfig& config,
                                           const std::vector<int>& feature_subset = {});

  /// Predicts the label (+1/-1) for one instance.
  int Predict(std::span<const float> row) const;

  /// Index (into nodes()) of the leaf `row` reaches.
  int LeafIndexFor(std::span<const float> row) const;

  /// Depth of the tree (a lone root leaf has depth 0).
  int Depth() const;

  /// Number of leaf nodes.
  size_t NumLeaves() const;

  /// Total node count.
  size_t NumNodes() const { return nodes_.size(); }

  /// Flattened node storage; index 0 is the root.
  const std::vector<TreeNode>& nodes() const { return nodes_; }

  /// Features this tree was allowed to split on (empty = all).
  const std::vector<int>& feature_subset() const { return feature_subset_; }

  /// Number of features of the training data (for validation on predict).
  size_t num_features() const { return num_features_; }

  /// Half-open interval constraint lo < x_f <= hi collected along a root-leaf
  /// path. Only features actually tested appear.
  struct PathConstraint {
    int feature;
    double lo;  ///< exclusive lower bound (-inf when unconstrained)
    double hi;  ///< inclusive upper bound (+inf when unconstrained)
  };

  /// A leaf together with the conjunction of constraints reaching it.
  struct LeafInfo {
    int node_index;
    int label;
    std::vector<PathConstraint> constraints;  ///< one entry per tested feature
  };

  /// Enumerates all leaves with per-feature merged path constraints. Used by
  /// the forgery solver (a leaf is an axis-aligned box).
  std::vector<LeafInfo> ExtractLeaves() const;

  /// Serialization.
  JsonValue ToJson() const;
  [[nodiscard]] static Result<DecisionTree> FromJson(const JsonValue& json);

  /// Builds a tree directly from nodes (used by the 3SAT reduction and
  /// tests). Validates structural well-formedness.
  [[nodiscard]] static Result<DecisionTree> FromNodes(std::vector<TreeNode> nodes,
                                        size_t num_features);

  /// Structural equality (same nodes in the same order).
  bool StructurallyEqual(const DecisionTree& other) const;

 private:
  DecisionTree() = default;

  std::vector<TreeNode> nodes_;
  std::vector<int> feature_subset_;
  size_t num_features_ = 0;
};

}  // namespace treewm::tree

#endif  // TREEWM_TREE_DECISION_TREE_H_
