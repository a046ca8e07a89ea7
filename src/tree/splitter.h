// Exact best-split search over sorted feature values — the RETAINED NAIVE
// REFERENCE for the sort-once training engine.
//
// This is the original per-node re-sorting splitter: every FindBestSplit
// call gathers the node's (value, label, weight) triples and sorts them,
// O(n log n) per (node, feature). Production training runs on the presorted
// engine (sorted_columns.h + trainer_core.h); this class is kept — like
// predict/reference.h on the inference side — as the executable
// specification the property tests compare against (DecisionTree::Fit must
// produce bit-identical trees to DecisionTree::FitReference, which uses
// this splitter).

#ifndef TREEWM_TREE_SPLITTER_H_
#define TREEWM_TREE_SPLITTER_H_

#include <optional>
#include <vector>

#include "data/dataset.h"
#include "tree/criterion.h"

namespace treewm::tree {

/// Minimum gain (weighted Gini or SSE decrease) for a split to count — guards
/// against FP-noise "improvements". Shared by every sweep, naive reference
/// and presorted engine, classification and regression, so their gain gates
/// are identical.
inline constexpr double kMinSplitGain = 1e-12;

/// A candidate axis-aligned split "feature <= threshold".
struct SplitCandidate {
  int feature = -1;
  float threshold = 0.0f;
  double gain = 0.0;          // weighted impurity decrease
  ClassWeights left_weights;  // mass going left (x_f <= threshold)
  ClassWeights right_weights;
  size_t left_count = 0;  // unweighted instance counts
  size_t right_count = 0;
};

/// Stateless split finder bound to one dataset + weight vector.
class Splitter {
 public:
  /// `weights` must have one entry per dataset row. Both referents must
  /// outlive the Splitter.
  Splitter(const data::Dataset& dataset, const std::vector<double>& weights);

  /// Finds the best split of `indices` among `features`, or nullopt when no
  /// split has positive gain.
  ///
  /// Thresholds are midpoints between consecutive distinct feature values
  /// (the sklearn convention), so they never coincide with a data value.
  /// Value ties are swept in `indices` order (stable sort), which is the
  /// documented accumulation-order contract the presorted engine matches.
  std::optional<SplitCandidate> FindBestSplit(const std::vector<size_t>& indices,
                                              const std::vector<int>& features,
                                              const ClassWeights& node_weights) const;

  /// Partitions `indices` by the split (stable). Outputs are cleared first.
  void Partition(const std::vector<size_t>& indices, const SplitCandidate& split,
                 std::vector<size_t>* left, std::vector<size_t>* right) const;

  /// Total class weights over `indices`.
  ClassWeights ComputeWeights(const std::vector<size_t>& indices) const;

 private:
  const data::Dataset& dataset_;
  const std::vector<double>& weights_;
};

}  // namespace treewm::tree

#endif  // TREEWM_TREE_SPLITTER_H_
