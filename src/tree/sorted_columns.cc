#include "tree/sorted_columns.h"

#include <algorithm>

#include "common/string_util.h"

namespace treewm::tree {

Status ValidateColumnsMatch(const SortedColumns* sorted,
                            const data::Dataset& dataset) {
  if (sorted != nullptr && (sorted->num_rows() != dataset.num_rows() ||
                            sorted->num_features() != dataset.num_features())) {
    return Status::InvalidArgument(
        StrFormat("sorted columns shape (%zu x %zu) does not match dataset "
                  "(%zu x %zu)",
                  sorted->num_rows(), sorted->num_features(), dataset.num_rows(),
                  dataset.num_features()));
  }
  return Status::OK();
}

std::shared_ptr<const SortedColumns> SortedColumns::Build(
    const data::Dataset& dataset, ThreadPool* pool) {
  auto columns = std::shared_ptr<SortedColumns>(new SortedColumns());
  const size_t n = dataset.num_rows();
  const size_t d = dataset.num_features();
  columns->num_rows_ = n;
  columns->num_features_ = d;
  columns->entries_.resize(d * n);
  // Each feature task fills and sorts only its own n-entry slab, and the
  // sort itself is deterministic, so the built columns are bit-identical
  // at every thread count.
  ParallelFor(pool, d, [&](size_t f) {
    ColumnEntry* col = columns->entries_.data() + f * n;
    for (size_t i = 0; i < n; ++i) {
      col[i] = {static_cast<uint32_t>(i), dataset.At(i, f)};
    }
    // Stable: value ties stay in ascending row order. This IS the engine's
    // tie contract — stable partition preserves it at every node, and the
    // retained naive reference (splitter.cc) gathers rows in ascending
    // order and stable-sorts, so both sides accumulate value-tied runs in
    // the same left-to-right order and FP sums match bit-for-bit.
    std::stable_sort(col, col + n, [](const ColumnEntry& a, const ColumnEntry& b) {
      return a.value < b.value;
    });
  });
  return columns;
}

}  // namespace treewm::tree
