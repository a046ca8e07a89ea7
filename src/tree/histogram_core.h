// Histogram training core: per-node gradient/count histograms over
// BinnedColumns, the parent−sibling subtraction trick, and per-feature
// split sweeps.
//
// Where the exact TrainerCore keeps a sorted working copy of every column
// and sweeps O(rows) entries per (node, feature), HistogramCore keeps ONE
// row-index array for the whole tree: node membership is a range
// [begin, end) of `rows`, split application is a single stable partition of
// that range by bin code (O(node) total, not O(node × features)), and a
// split sweep walks an O(bins) histogram instead of the rows.
//
// Subtraction trick: a parent's histogram is the elementwise sum of its
// children's. When a node splits, only the SMALLER child's histogram is
// accumulated from rows; the larger child's is obtained by subtracting it
// from the parent's buffer in place. Every row therefore contributes to at
// most one accumulation per tree LEVEL on the small side — about half the
// work of the exact engine's every-row-every-level sweeps before the
// O(bins) vs O(rows) sweep gap even starts counting.
//
// A tree grows serially: the per-feature accumulate/subtract/sweep loop
// runs one feature slot after another, each writing only its own histogram
// slice, and the slots' candidates are reduced in slot order with the
// strict ">" rule, so a tie goes to the lowest slot (then the lowest bin).
// Parallelism lives one level up, across the trees of a forest
// (see src/tree/README.md).
//
// Approximation contract: this engine is gated by accuracy parity with the
// exact engine, NOT bit-identity — see src/tree/README.md. (On features
// where every distinct value got its own bin the cut sets coincide and
// integer-weight fits match the exact engine exactly; the tests exploit
// this for a deterministic structural check.)

#ifndef TREEWM_TREE_HISTOGRAM_CORE_H_
#define TREEWM_TREE_HISTOGRAM_CORE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "tree/binned_columns.h"
#include "tree/criterion.h"

namespace treewm::tree {

/// One histogram bin of a classification node: class-weight mass + row count.
struct ClassHistBin {
  double positive = 0.0;
  double negative = 0.0;
  uint32_t count = 0;
};

/// One histogram bin of a regression node: target sum + row count.
struct SseHistBin {
  double sum = 0.0;
  uint32_t count = 0;
};

/// Best classification split found on a node's histograms. `split_bin` is
/// the last bin of the left child on `feature`; `threshold` is the matching
/// cut from BinnedColumns::split_values, so inference reproduces exactly
/// the training-row partition.
struct HistClassSplit {
  int feature = -1;
  uint32_t split_bin = 0;
  float threshold = 0.0f;
  double gain = 0.0;
  ClassWeights left_weights;
  ClassWeights right_weights;
  size_t left_count = 0;
  size_t right_count = 0;
};

/// Best SSE split found on a node's histograms. feature == -1 means "no
/// split" (the node becomes a leaf). `left_sum` lets the trainer carry
/// child target sums down by subtraction instead of re-accumulating.
struct HistSseSplit {
  int feature = -1;
  uint32_t split_bin = 0;
  float threshold = 0.0f;
  double gain = 0.0;
  double left_sum = 0.0;
  size_t left_count = 0;
};

/// Sweeps one feature's classification histogram for the best cut. Visits
/// cuts in ascending bin order with the exact engine's gates (kMinSplitGain,
/// strict ">" so the first maximal cut wins, min_samples_leaf on both
/// sides); cuts after node-empty bins are skipped (same partition as the
/// previous cut). Updates `best` in place.
void BestClassSplitOnHistogram(std::span<const ClassHistBin> bins, int feature,
                               std::span<const float> split_values,
                               SplitCriterion criterion,
                               const ClassWeights& node_weights,
                               size_t node_count, size_t min_samples_leaf,
                               std::optional<HistClassSplit>* best);

/// Regression twin: maximizes sum_l²/n_l + sum_r²/n_r − parent_term (the
/// same SSE-decrease identity as the exact sweep). `total_sum` is the
/// node's target sum, `parent_term` = total_sum² / node_count.
void BestSseSplitOnHistogram(std::span<const SseHistBin> bins, int feature,
                             std::span<const float> split_values,
                             double total_sum, double parent_term,
                             size_t node_count, size_t min_samples_leaf,
                             double min_gain, HistSseSplit* best);

/// Per-tree mutable workspace over shared immutable BinnedColumns: the row
/// partition array plus split-staging scratch. One instance per tree
/// being grown. Not thread-safe.
class HistogramCore {
 public:
  /// Sweep config for classification ops.
  struct ClassSweepConfig {
    SplitCriterion criterion = SplitCriterion::kGini;
    size_t min_samples_leaf = 1;
  };
  /// What a classification node knows about itself before sweeping.
  struct ClassNodeStats {
    ClassWeights weights;
    size_t count = 0;
  };
  /// Sweep config for regression ops.
  struct SseSweepConfig {
    size_t min_samples_leaf = 1;
    double min_gain = 0.0;
  };
  struct SseNodeStats {
    double sum = 0.0;
    size_t count = 0;
  };

  /// `features` lists the dataset feature ids this tree may split on, in
  /// sweep order. `binned` must outlive the core.
  HistogramCore(const BinnedColumns& binned, const std::vector<int>& features);

  size_t num_rows() const { return n_; }
  size_t num_slots() const { return features_.size(); }

  /// Total histogram length: one buffer spans Σ_slot num_bins(feature).
  size_t total_bins() const { return total_bins_; }

  /// Stable-partitions rows [begin, end) by `code(feature) <= split_bin`
  /// (left first, relative order — and thus ascending-row order — is
  /// preserved). Returns the boundary; children own [begin, mid), [mid, end).
  size_t ApplySplit(size_t begin, size_t end, int feature, uint32_t split_bin);

  /// The fused per-level classification operation, one pass per feature
  /// slot: (1) accumulate rows [fresh_begin, fresh_end) — the
  /// SMALLER child, or the root — into `fresh` (resized/zeroed here);
  /// (2) when `parent` is non-null, subtract `fresh` from it in place, so
  /// `parent` BECOMES the larger sibling's histogram; (3) sweep either or
  /// both histograms for their best splits, reduced in slot order with
  /// strict ">" (a tie goes to the lowest slot). `labels`/`weights` are
  /// per-row arrays (weights never null here; the trainer resolves unit
  /// weights first).
  void ClassOp(const ClassSweepConfig& config, const int8_t* labels,
               const double* weights, std::vector<ClassHistBin>* fresh,
               std::vector<ClassHistBin>* parent, size_t fresh_begin,
               size_t fresh_end, const ClassNodeStats& fresh_stats,
               const ClassNodeStats& remainder_stats, bool sweep_fresh,
               bool sweep_remainder, std::optional<HistClassSplit>* best_fresh,
               std::optional<HistClassSplit>* best_remainder);

  /// Regression twin of ClassOp over target sums.
  void SseOp(const SseSweepConfig& config, const double* targets,
             std::vector<SseHistBin>* fresh, std::vector<SseHistBin>* parent,
             size_t fresh_begin, size_t fresh_end,
             const SseNodeStats& fresh_stats, const SseNodeStats& remainder_stats,
             bool sweep_fresh, bool sweep_remainder, HistSseSplit* best_fresh,
             HistSseSplit* best_remainder);

  /// The node-membership row array (ascending original-row order within
  /// every node range — histogram accumulation visits rows in that order).
  std::span<const uint32_t> rows() const { return rows_; }

 private:
  const BinnedColumns* binned_;
  std::vector<int> features_;
  size_t n_ = 0;
  size_t total_bins_ = 0;
  std::vector<size_t> slot_offset_;  // slot -> first bin in a histogram buffer
  std::vector<uint32_t> rows_;       // the tree's row partition
  std::vector<uint32_t> scratch_;    // right-side staging for ApplySplit
};

}  // namespace treewm::tree

#endif  // TREEWM_TREE_HISTOGRAM_CORE_H_
