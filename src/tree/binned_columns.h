// Per-feature binned (quantized) columns — the substrate of the histogram
// training engine.
//
// The exact sort-once engine (sorted_columns.h + trainer_core.h) sweeps
// every row of a node per feature: O(rows) gain evaluations per split, the
// wrong asymptotic for the million-row regime. BinnedColumns bins the
// training data LightGBM-style — per-feature cut arrays, uint8/uint16 row
// codes: each feature is binned ONCE per dataset, after which a split sweep
// is O(bins) over a per-node histogram (histogram_core.h) instead of
// O(rows) over a sorted column.
//
// Bin layout, per feature:
//   * when the feature has at most `max_bins` distinct values, every
//     distinct value gets its own bin — the candidate threshold set then
//     EQUALS the exact engine's (midpoints between adjacent distinct
//     values, same one-ulp-fallback formula), so on such features the two
//     engines search identical cuts;
//   * otherwise bins are equal-frequency (quantile) groups of whole
//     distinct-value runs, closed greedily at ceil(remaining_rows /
//     remaining_bins) — never more than `max_bins` bins, never an empty
//     bin, never a cut through a tied value run.
//
// Codes are uint8 when every feature fits in 256 bins (the default cap of
// 255 always does) and fall back to uint16 otherwise. The object is
// immutable after Build and is shared across trees, boosting rounds and
// ThreadPool workers exactly like SortedColumns — for GBDT one binning pass
// serves every round.

#ifndef TREEWM_TREE_BINNED_COLUMNS_H_
#define TREEWM_TREE_BINNED_COLUMNS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"

namespace treewm::tree {

/// Which split-search engine a trainer runs on.
enum class TrainerMode {
  /// Sort-once column-index engine — the default and the executable spec;
  /// bit-identical to the retained naive reference.
  kExact,
  /// Binned-gradient histogram engine — approximate (accuracy-parity, not
  /// bit-identity, vs kExact), O(bins) split sweeps, opt-in.
  kHistogram,
};

/// Binning knobs for BinnedColumns::Build.
struct BinnedOptions {
  /// Maximum bins per feature, in [2, 65535]. 255 (the LightGBM default)
  /// keeps every code in uint8; above 256 codes widen to uint16.
  size_t max_bins = 255;
};

/// Immutable per-feature bin codes + cut arrays for one dataset.
class BinnedColumns {
 public:
  /// Bins every feature of `dataset`: sort the column, then one bin per
  /// distinct value (when they fit) or equal-frequency groups. O(d·n log n),
  /// paid once per dataset. `pool` fans the per-feature work out (nullptr =
  /// serial); the result is identical at every thread count — features are
  /// binned independently into disjoint slabs.
  static Result<std::shared_ptr<const BinnedColumns>> Build(
      const data::Dataset& dataset, const BinnedOptions& options = {},
      ThreadPool* pool = nullptr);

  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return num_features_; }

  /// The cap Build ran with (BinnedOptions::max_bins).
  size_t max_bins() const { return max_bins_; }

  /// True when codes are uint16 (some feature needed more than 256 bins).
  bool wide() const { return wide_; }

  /// Number of bins of feature `f` (>= 1; 1 means the feature is constant).
  uint32_t num_bins(size_t f) const { return num_bins_[f]; }

  /// Thresholds between adjacent bins of feature `f`: split_values(f)[b] is
  /// the "x <= t" threshold realizing the cut {bins <= b} | {bins > b},
  /// computed with the exact engine's midpoint-with-ulp-fallback formula so
  /// the training rows' partition and the inference-time comparison agree.
  /// Size num_bins(f) - 1, strictly increasing.
  std::span<const float> split_values(size_t f) const { return splits_[f]; }

  /// Raw code column of feature `f` (call the variant matching wide()).
  const uint8_t* codes8(size_t f) const {
    return codes8_.data() + f * num_rows_;
  }
  const uint16_t* codes16(size_t f) const {
    return codes16_.data() + f * num_rows_;
  }

  /// Width-agnostic single-code accessor (tests / cold paths).
  uint16_t code(size_t f, size_t row) const {
    return wide_ ? codes16(f)[row] : codes8(f)[row];
  }

 private:
  BinnedColumns() = default;

  size_t num_rows_ = 0;
  size_t num_features_ = 0;
  size_t max_bins_ = 0;
  bool wide_ = false;
  std::vector<uint32_t> num_bins_;          // per feature
  std::vector<std::vector<float>> splits_;  // per feature, num_bins - 1 cuts
  std::vector<uint8_t> codes8_;             // feature-major d × n (narrow)
  std::vector<uint16_t> codes16_;           // feature-major d × n (wide)
};

/// InvalidArgument unless `binned` is non-null and was built for a dataset
/// of exactly `dataset`'s shape — the shape contract every histogram-mode
/// trainer enforces (histogram mode cannot run without binned columns, so
/// unlike ValidateColumnsMatch a null pointer is only accepted by trainers
/// that build internally; they validate after building).
[[nodiscard]] Status ValidateBinnedMatch(const BinnedColumns* binned,
                                         const data::Dataset& dataset);

}  // namespace treewm::tree

#endif  // TREEWM_TREE_BINNED_COLUMNS_H_
