// Regression trees (variance-reduction CART) — the member learner for
// gradient boosting.
//
// The paper's future work names gradient-boosted ensembles as the next
// target for the watermarking scheme (§5). Boosting fits trees to residuals,
// which requires a regression learner: axis-aligned splits minimizing the
// sum of squared errors, real-valued leaves. Leaf values are exposed for
// override so the booster can install Newton-step values (the standard
// logit-boost refinement).

#ifndef TREEWM_BOOSTING_REGRESSION_TREE_H_
#define TREEWM_BOOSTING_REGRESSION_TREE_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "tree/sorted_columns.h"

namespace treewm::boosting {

/// One node of a flattened regression tree. Leaves have feature == -1.
struct RegressionNode {
  int feature = -1;
  float threshold = 0.0f;
  int left = -1;
  int right = -1;
  double value = 0.0;  ///< leaf prediction
};

/// Induction hyper-parameters. A node shallower than max_depth is split at
/// the cut with the largest SSE decrease, if that decrease exceeds
/// tree::kMinSplitGain.
struct RegressionTreeConfig {
  /// Maximum depth; boosting conventionally uses shallow trees (default 3).
  int max_depth = 3;

  [[nodiscard]] Status Validate() const;
};

/// An immutable trained regression tree.
class RegressionTree {
 public:
  /// Fits to `targets` (one per dataset row) using the dataset's features;
  /// dataset labels are ignored. The tree grows serially on the calling
  /// thread.
  ///
  /// Runs on the sort-once column-index engine (tree/sorted_columns.h +
  /// tree/trainer_core.h). Pass a prebuilt `sorted` for the same dataset to
  /// amortize the one-time column sort — for GBDT the row set is fixed
  /// across ALL boosting rounds, so one sort serves every stage. nullptr
  /// builds it internally on ThreadPool::Global(). A `sorted` built for
  /// another dataset shape is an InvalidArgument. Bit-identical to
  /// FitReference.
  [[nodiscard]] static Result<RegressionTree> Fit(const data::Dataset& dataset,
                                    const std::vector<double>& targets,
                                    const RegressionTreeConfig& config,
                                    const tree::SortedColumns* sorted = nullptr);

  /// The retained naive trainer (per-node re-sorting SSE sweep) — the
  /// executable specification Fit is property-tested against.
  [[nodiscard]] static Result<RegressionTree> FitReference(const data::Dataset& dataset,
                                             const std::vector<double>& targets,
                                             const RegressionTreeConfig& config);

  /// Predicted value for one instance.
  double Predict(std::span<const float> row) const;

  /// Index (into nodes()) of the leaf `row` reaches.
  int LeafIndexFor(std::span<const float> row) const;

  /// Overwrites a leaf's value (used for Newton steps). `node` must be a
  /// leaf index.
  [[nodiscard]] Status SetLeafValue(int node, double value);

  int Depth() const;
  size_t NumLeaves() const;
  const std::vector<RegressionNode>& nodes() const { return nodes_; }
  size_t num_features() const { return num_features_; }

 private:
  RegressionTree() = default;
  std::vector<RegressionNode> nodes_;
  size_t num_features_ = 0;
};

}  // namespace treewm::boosting

#endif  // TREEWM_BOOSTING_REGRESSION_TREE_H_
