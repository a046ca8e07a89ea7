// Per-feature presorted index columns — the sort-once substrate for tree
// training.
//
// Every trainer in the repo used to re-sort each (node, feature) pair from
// scratch, paying O(k·n log n) per node. SortedColumns sorts each feature
// column ONCE per dataset (ties broken by ascending row id, i.e. stably);
// tree induction then maintains node membership by stable in-place partition
// of the index arrays (see trainer_core.h), so every node's split sweep is a
// linear pass over presorted runs and no sort ever happens again.
//
// The object is immutable after Build and is shared across trees, boosting
// rounds and ThreadPool workers via shared_ptr, exactly the way FlatEnsemble
// images are shared on the inference side: the row set of a dataset is fixed
// for the lifetime of a forest fit, every tree of every GBDT stage, and —
// crucially for TrainWithTrigger — every weight-boosting round (sample
// weights never change the sort order).

#ifndef TREEWM_TREE_SORTED_COLUMNS_H_
#define TREEWM_TREE_SORTED_COLUMNS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"

namespace treewm::tree {

/// One instance under one feature: the row id and its feature value, packed
/// so a split sweep reads contiguous 8-byte records instead of gathering
/// from the row-major dataset.
struct ColumnEntry {
  uint32_t row;
  float value;
};

/// Immutable per-feature sorted index columns for one dataset.
class SortedColumns {
 public:
  /// Sorts every feature column of `dataset` (ascending by value, ties by
  /// ascending row id). O(d·n log n), paid once per dataset. Fans the
  /// per-feature sorts out across `pool` (nullptr = serial) — each task
  /// fills and sorts its own disjoint slab of the feature-major array, so
  /// the result is bit-identical at every thread count (regression-tested
  /// in tests/test_trainer_core.cc).
  static std::shared_ptr<const SortedColumns> Build(const data::Dataset& dataset,
                                                    ThreadPool* pool);

  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return num_features_; }

  /// Sorted column of feature `f`: n entries, ascending by value, value ties
  /// in ascending row order.
  std::span<const ColumnEntry> Column(size_t f) const {
    return {entries_.data() + f * num_rows_, num_rows_};
  }

 private:
  SortedColumns() = default;

  size_t num_rows_ = 0;
  size_t num_features_ = 0;
  std::vector<ColumnEntry> entries_;  // feature-major, d × n
};

/// InvalidArgument unless `sorted` (when non-null) was built for a dataset
/// of exactly `dataset`'s shape — the one shape contract every trainer that
/// accepts prebuilt columns enforces.
[[nodiscard]] Status ValidateColumnsMatch(const SortedColumns* sorted,
                            const data::Dataset& dataset);

}  // namespace treewm::tree

#endif  // TREEWM_TREE_SORTED_COLUMNS_H_
