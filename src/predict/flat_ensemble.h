// Cache-friendly flattened ensemble — the batch-inference memory layout.
//
// Every batch prediction path in treewm (watermark verification's
// `QueryPredictAll` sweeps, accuracy evaluations, grid search, the attack
// benchmarks) is dominated by ensemble traversal. The per-model node vectors
// are 20-byte records whose label field pads every node across cache lines,
// and every step pays a "is this a leaf?" branch plus a data-dependent
// branch on the float comparison. FlatEnsemble repacks all trees of an
// ensemble into one contiguous arena of 32-byte, 32-aligned records tuned
// for the branchless batch kernel in batch_predictor.cc:
//
//   nodes_[n].ft        split feature | FloatKey(threshold) << 32
//   nodes_[n].child[b]  pre-scaled BYTE offset of the child record
//   roots_[t]           entry of tree t
//
// Thresholds are stored as order-preserving integer keys (FloatKey) and rows
// are transformed into the same key space once per batch, so a traversal
// step needs no float unit. Only internal nodes occupy arena slots. A child
// entry c < 0 encodes a leaf as the bitwise complement ~c of its payload
// index, so the traversal loop is a branchless step with no per-node leaf
// test:
//
//   while (n >= 0) n = taken-child(nodes at byte offset n);  // cmp + cmov
//   payload = ~n;
//
// Leaf payloads live in struct-of-arrays side arrays: `leaf_labels_` (±1
// votes) for classification forests, `leaf_values_` (doubles) for boosted
// regression trees. Traversal order and comparison semantics match the
// scalar `Predict` paths, so flat results are bit-exact with the reference
// implementations (see src/predict/README.md for the exact contract).

#ifndef TREEWM_PREDICT_FLAT_ENSEMBLE_H_
#define TREEWM_PREDICT_FLAT_ENSEMBLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "boosting/regression_tree.h"
#include "common/status.h"
#include "tree/decision_tree.h"

namespace treewm::predict {

/// Order-preserving integer image of a float: for all non-NaN a, b (with
/// -0.0 first normalized to +0.0), a <= b iff FloatKey(a) <= FloatKey(b) as
/// uint32. Every NaN — either sign bit, any payload — is first normalized
/// to the canonical quiet NaN, so all NaNs map above +inf and a NaN feature
/// takes the right child exactly like the scalar paths' `!(x <= v)` (a raw
/// sign-bit NaN would otherwise map low and diverge). Comparing keys
/// instead of floats keeps the traversal step an integer cmp+cmov chain.
inline uint32_t FloatKey(float f) {
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(f));
  __builtin_memcpy(&bits, &f, sizeof(bits));
  bits = (bits & 0x7FFFFFFFu) > 0x7F800000u ? 0x7FC00000u : bits;  // NaN
  bits = bits == 0x80000000u ? 0u : bits;  // -0.0 == +0.0 must map equal
  return bits ^ (static_cast<uint32_t>(static_cast<int32_t>(bits) >> 31) |
                 0x80000000u);
}

/// One internal node of the packed arena: everything a traversal step needs
/// on a single 32-byte, 32-aligned record (two nodes per cache line, never
/// straddling one). `ft` packs the split feature (low half) with the
/// threshold's FloatKey (high half) so one load feeds both the feature
/// lookup and the comparison. Children are pre-sign-extended, pre-scaled
/// BYTE offsets into the arena (child = index * sizeof(FlatNode)), so the
/// traversal step is addr-add + cmov with no shift/extend in the dependency
/// chain; child < 0 encodes leaf ~child. The two child words load off the
/// critical path and a register cmov picks the taken one.
struct alignas(32) FlatNode {
  uint64_t ft;       ///< split feature | (FloatKey(threshold) << 32)
  int64_t child[2];  ///< byte-scaled arena offsets; < 0 is leaf ~child
  int64_t pad = 0;   ///< keeps nodes cache-line aligned

  int32_t feature() const { return static_cast<int32_t>(static_cast<uint32_t>(ft)); }
};
static_assert(sizeof(FlatNode) == 32);

/// An immutable packed ensemble ready for batch traversal.
class FlatEnsemble {
 public:
  /// Packs classification trees (±1 leaf votes). Every tree must agree on
  /// num_features; a RandomForest's trees() span can be passed directly.
  static FlatEnsemble FromClassificationTrees(
      std::span<const tree::DecisionTree> trees);

  /// Packs boosted regression trees (double leaf values) together with the
  /// additive-model constants, so Score(x) = initial_score + lr * Σ leaf_t(x)
  /// can be reproduced in exactly the scalar accumulation order.
  static FlatEnsemble FromRegressionTrees(
      std::span<const boosting::RegressionTree> trees, double initial_score,
      double learning_rate);

  /// Rebuilds an ensemble from a raw packed arena — the binary-snapshot load
  /// path (io/ensemble_snapshot), which hands it attacker-controllable
  /// bytes. Validates everything traversal safety depends on before
  /// accepting: every root and child entry is either a 32-byte-aligned
  /// in-arena offset or the complement of an in-range leaf payload, every
  /// internal child offset is strictly greater than its parent's (the
  /// packer's invariant — source trees index children after parents — which
  /// guarantees every traversal terminates), every split feature is in
  /// [0, num_features), classification leaves are ±1, and exactly the leaf
  /// array matching `is_regression` is populated. Rejects with
  /// InvalidArgument; it does NOT re-derive which arena range belongs to
  /// which tree (roots may share subtrees without breaking safety).
  static Result<FlatEnsemble> FromParts(
      std::vector<FlatNode> nodes, std::vector<int64_t> roots,
      std::vector<int8_t> leaf_labels, std::vector<double> leaf_values,
      size_t num_features, bool is_regression, double initial_score,
      double learning_rate);

  size_t num_trees() const { return roots_.size(); }
  size_t num_features() const { return num_features_; }
  /// True when leaves carry double values (GBDT), false for ±1 votes.
  bool is_regression() const { return is_regression_; }
  double initial_score() const { return initial_score_; }
  double learning_rate() const { return learning_rate_; }
  /// Total internal nodes across all trees.
  size_t num_internal_nodes() const { return nodes_.size(); }
  /// Total leaves across all trees.
  size_t num_leaves() const {
    return is_regression_ ? leaf_values_.size() : leaf_labels_.size();
  }

  /// Raw arena for the traversal kernel (empty => all-leaf trees).
  const FlatNode* nodes() const { return nodes_.data(); }
  /// Entry of tree t: >= 0 is a byte-scaled arena offset, < 0 encodes leaf
  /// ~entry.
  int64_t root(size_t t) const { return roots_[t]; }
  const int8_t* leaf_labels() const { return leaf_labels_.data(); }
  const double* leaf_values() const { return leaf_values_.data(); }

 private:
  FlatEnsemble() = default;

  /// Appends one tree's nodes to the arena; NodeView adapts the two source
  /// node types. `entry_scratch` is a caller-owned remap buffer reused
  /// across trees. Returns the entry for roots_.
  template <typename Node>
  int64_t PackTree(std::span<const Node> nodes, std::vector<int64_t>* entry_scratch);

  std::vector<FlatNode> nodes_;
  std::vector<int64_t> roots_;
  std::vector<int8_t> leaf_labels_;
  std::vector<double> leaf_values_;
  size_t num_features_ = 0;
  bool is_regression_ = false;
  double initial_score_ = 0.0;
  double learning_rate_ = 0.0;
};

}  // namespace treewm::predict

#endif  // TREEWM_PREDICT_FLAT_ENSEMBLE_H_
