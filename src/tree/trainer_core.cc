#include "tree/trainer_core.h"

#include <algorithm>
#include <cassert>

namespace treewm::tree {

TrainerCore::TrainerCore(const SortedColumns& sorted,
                         const std::vector<int>& features, bool with_identity)
    : sorted_(&sorted),
      features_(features),
      slot_of_(sorted.num_features(), -1),
      n_(sorted.num_rows()),
      with_identity_(with_identity) {
  for (size_t s = 0; s < features_.size(); ++s) {
    slot_of_[static_cast<size_t>(features_[s])] = static_cast<int32_t>(s);
  }
  identity_slot_ = features_.size();
  num_columns_ = features_.size() + (with_identity_ ? 1 : 0);
  cols_.resize(num_columns_ * n_);
  scratch_.resize(n_);
  goes_left_.assign(n_, 0);
  Reset();
}

void TrainerCore::Reset() {
  for (size_t s = 0; s < features_.size(); ++s) {
    const auto src = sorted_->Column(static_cast<size_t>(features_[s]));
    std::copy(src.begin(), src.end(), cols_.data() + s * n_);
  }
  if (with_identity_) {
    ColumnEntry* id = cols_.data() + identity_slot_ * n_;
    for (size_t i = 0; i < n_; ++i) id[i] = {static_cast<uint32_t>(i), 0.0f};
  }
}

size_t TrainerCore::ApplySplit(size_t begin, size_t end, size_t split_slot,
                               size_t left_count) {
  assert(left_count > 0 && left_count < end - begin);
  const ColumnEntry* split_col = cols_.data() + split_slot * n_;
  for (size_t i = begin; i < begin + left_count; ++i) {
    goes_left_[split_col[i].row] = 1;
  }
  for (size_t c = 0; c < num_columns_; ++c) {
    // The split column is already exactly partitioned: its first left_count
    // entries ARE the left rows and both sides keep their order, so the
    // stable pass would be a no-op.
    if (c == split_slot) continue;
    ColumnEntry* col = cols_.data() + c * n_;
    size_t lp = begin;
    size_t rp = 0;
    for (size_t i = begin; i < end; ++i) {
      const ColumnEntry e = col[i];
      if (goes_left_[e.row]) {
        col[lp++] = e;
      } else {
        scratch_[rp++] = e;
      }
    }
    std::copy(scratch_.data(), scratch_.data() + rp, col + lp);
  }
  // The split column's left rows are still its first left_count entries.
  for (size_t i = begin; i < begin + left_count; ++i) {
    goes_left_[split_col[i].row] = 0;
  }
  return begin + left_count;
}

void BestSplitOnColumn(std::span<const ColumnEntry> column, int feature,
                       const int8_t* labels, const double* weights,
                       const ClassWeights& node_weights,
                       std::optional<SplitCandidate>* best) {
  const size_t n = column.size();
  if (column.front().value == column.back().value) return;  // constant feature

  ClassWeights left;
  ClassWeights right = node_weights;
  size_t left_count = 0;
  for (size_t i = 0; i + 1 < n; ++i) {
    const ColumnEntry e = column[i];
    left.Add(labels[e.row], weights[e.row]);
    right.Remove(labels[e.row], weights[e.row]);
    ++left_count;
    // Only cut between distinct values.
    if (e.value == column[i + 1].value) continue;
    const double gain = ImpurityDecrease(node_weights, left, right);
    if (gain > kMinSplitGain && (!*best || gain > (*best)->gain)) {
      SplitCandidate candidate;
      candidate.feature = feature;
      // Midpoint threshold; guaranteed >= left value and < right value.
      candidate.threshold = e.value + (column[i + 1].value - e.value) * 0.5f;
      // Degenerate float midpoints (values one ulp apart) collapse onto the
      // right value; fall back to the left value so "x <= t" still separates.
      if (candidate.threshold >= column[i + 1].value) {
        candidate.threshold = e.value;
      }
      candidate.gain = gain;
      candidate.left_weights = left;
      candidate.right_weights = right;
      candidate.left_count = left_count;
      candidate.right_count = n - left_count;
      *best = candidate;
    }
  }
}

void BestSseSplitOnColumn(std::span<const ColumnEntry> column, int feature,
                          const double* targets, double total_sum,
                          double parent_term, RegressionSplitCandidate* best) {
  const size_t n = column.size();
  if (column.front().value == column.back().value) return;

  // SSE(parent) - SSE(children) = sum_l^2/n_l + sum_r^2/n_r - sum^2/n.
  double left_sum = 0.0;
  for (size_t i = 0; i + 1 < n; ++i) {
    const ColumnEntry e = column[i];
    left_sum += targets[e.row];
    if (e.value == column[i + 1].value) continue;
    const size_t left_count = i + 1;
    const size_t right_count = n - left_count;
    const double right_sum = total_sum - left_sum;
    const double gain = left_sum * left_sum / static_cast<double>(left_count) +
                        right_sum * right_sum / static_cast<double>(right_count) -
                        parent_term;
    if (gain > kMinSplitGain && gain > best->gain) {
      float threshold = e.value + (column[i + 1].value - e.value) * 0.5f;
      if (threshold >= column[i + 1].value) threshold = e.value;
      best->feature = feature;
      best->threshold = threshold;
      best->gain = gain;
      best->left_count = left_count;
    }
  }
}

}  // namespace treewm::tree
