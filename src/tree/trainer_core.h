// Shared training core: per-tree column workspace over SortedColumns plus
// the presorted split sweeps for classification (ClassWeights) and
// regression (SSE).
//
// A TrainerCore owns a working copy of the sorted index columns for one
// tree's feature subset. Tree induction addresses node membership as a range
// [begin, end) that is valid in EVERY column simultaneously; splitting a
// node stable-partitions each column's range in place (left rows first,
// relative order preserved), so two invariants hold at every node forever:
//
//   1. each column range is sorted by feature value;
//   2. value ties appear in ascending original-row order (the global
//      stable-sort order survives stable partition).
//
// Invariant 2 is what makes the engine bit-identical to the retained naive
// reference (splitter.cc / the naive regression sweep): both sides add the
// same rows to the same accumulators in the same left-to-right order, so
// floating-point sums — and therefore gains, gain comparisons and chosen
// thresholds — match exactly. See src/tree/README.md for the full contract.

#ifndef TREEWM_TREE_TRAINER_CORE_H_
#define TREEWM_TREE_TRAINER_CORE_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "tree/sorted_columns.h"
#include "tree/splitter.h"

namespace treewm::tree {

/// Per-tree mutable workspace: working index columns for a feature subset,
/// an optional identity column (node members in ascending row order — the
/// regression learner needs per-node target sums in that order), and the
/// scratch needed for stable in-place partition. One instance per tree
/// being grown; the underlying SortedColumns is shared and immutable.
class TrainerCore {
 public:
  /// `features` lists the dataset feature ids this tree may split on, in
  /// sweep order (the order the learner would have searched them). The
  /// workspace copies only those columns. `sorted` must outlive the core.
  TrainerCore(const SortedColumns& sorted, const std::vector<int>& features,
              bool with_identity);

  /// Restores every column to the full-dataset sorted state (fresh tree on
  /// the same dataset — e.g. the next boosting round).
  void Reset();

  size_t num_rows() const { return n_; }
  size_t num_slots() const { return features_.size(); }
  int feature_at(size_t slot) const { return features_[slot]; }

  /// Slot index of a dataset feature id (must be in the subset).
  size_t SlotOf(int feature) const {
    return static_cast<size_t>(slot_of_[static_cast<size_t>(feature)]);
  }

  /// Node range of one feature column: sorted by value, ties by row.
  std::span<const ColumnEntry> Column(size_t slot, size_t begin, size_t end) const {
    return {cols_.data() + slot * n_ + begin, end - begin};
  }

  /// Node members in ascending original-row order (requires with_identity).
  std::span<const ColumnEntry> Members(size_t begin, size_t end) const {
    assert(with_identity_);
    return {cols_.data() + identity_slot_ * n_ + begin, end - begin};
  }

  /// Splits node [begin, end): the first `left_count` entries of
  /// `split_slot`'s range (the value-sorted prefix, i.e. exactly the rows
  /// with x_f <= threshold) go left. Stable-partitions every column's range
  /// in place and returns the boundary `begin + left_count`; the children
  /// own [begin, mid) and [mid, end).
  size_t ApplySplit(size_t begin, size_t end, size_t split_slot, size_t left_count);

 private:
  const SortedColumns* sorted_;
  std::vector<int> features_;
  std::vector<int32_t> slot_of_;  // feature id -> slot (-1 when absent)
  size_t n_ = 0;
  size_t num_columns_ = 0;   // feature slots + optional identity column
  size_t identity_slot_ = 0;  // == num_slots() when present
  bool with_identity_ = false;
  std::vector<ColumnEntry> cols_;     // slot-major, num_columns_ × n
  std::vector<ColumnEntry> scratch_;  // right side staging for partition
  std::vector<uint8_t> goes_left_;    // per-row mark, cleared after each split
};

/// Sweeps one presorted column for the best weighted-Gini split, updating
/// `best` in place. Mirrors Splitter::FindBestSplit's inner loop
/// operation-for-operation (accumulation order, kMinSplitGain gate, strict
/// ">" tie behavior, midpoint threshold with the one-ulp fallback), so the
/// result is bit-identical to the naive reference on the same rows.
/// `labels`/`weights` are per-row arrays indexed by ColumnEntry::row.
void BestSplitOnColumn(std::span<const ColumnEntry> column, int feature,
                       const int8_t* labels, const double* weights,
                       const ClassWeights& node_weights,
                       std::optional<SplitCandidate>* best);

/// Best SSE-reducing split of one presorted column (the regression-tree /
/// GBDT sweep). `total_sum` is the node's target sum accumulated in
/// ascending row order; `parent_term` = total_sum² / n as computed by the
/// caller. Mirrors the naive regression sweep exactly. Tracks `left_count`
/// so the caller can ApplySplit without re-deriving the prefix.
struct RegressionSplitCandidate {
  int feature = -1;
  float threshold = 0.0f;
  double gain = 0.0;
  size_t left_count = 0;
};

void BestSseSplitOnColumn(std::span<const ColumnEntry> column, int feature,
                          const double* targets, double total_sum,
                          double parent_term, RegressionSplitCandidate* best);

}  // namespace treewm::tree

#endif  // TREEWM_TREE_TRAINER_CORE_H_
