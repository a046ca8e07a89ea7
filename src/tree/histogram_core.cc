#include "tree/histogram_core.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "tree/splitter.h"

namespace treewm::tree {

namespace {

// Accumulation kernels, templated on code width so the hot loop reads one
// byte (or two) per row with no branch. Rows arrive in ascending original
// order (the partition is stable), so weight sums accumulate in row order.
template <typename Code>
void AccumulateClass(const Code* codes, const uint32_t* rows, size_t count,
                     const int8_t* labels, const double* weights,
                     ClassHistBin* bins) {
  for (size_t i = 0; i < count; ++i) {
    const uint32_t r = rows[i];
    ClassHistBin& bin = bins[codes[r]];
    if (labels[r] > 0) {
      bin.positive += weights[r];
    } else {
      bin.negative += weights[r];
    }
    ++bin.count;
  }
}

template <typename Code>
void AccumulateSse(const Code* codes, const uint32_t* rows, size_t count,
                   const double* targets, SseHistBin* bins) {
  for (size_t i = 0; i < count; ++i) {
    const uint32_t r = rows[i];
    SseHistBin& bin = bins[codes[r]];
    bin.sum += targets[r];
    ++bin.count;
  }
}

}  // namespace

void BestClassSplitOnHistogram(std::span<const ClassHistBin> bins, int feature,
                               std::span<const float> split_values,
                               SplitCriterion criterion,
                               const ClassWeights& node_weights,
                               size_t node_count, size_t min_samples_leaf,
                               std::optional<HistClassSplit>* best) {
  ClassWeights left;
  size_t left_count = 0;
  // Cut b sends bins [0, b] left. The last bin is never a cut (right side
  // would be empty).
  for (size_t b = 0; b + 1 < bins.size(); ++b) {
    left.positive += bins[b].positive;
    left.negative += bins[b].negative;
    left_count += bins[b].count;
    // An empty bin yields the same row partition as the previous cut (or an
    // empty left side at b == 0) — skip it so each distinct partition is
    // scored once, at its lowest bin.
    if (bins[b].count == 0) continue;
    if (left_count < min_samples_leaf) continue;
    const size_t right_count = node_count - left_count;
    // right_count only shrinks from here on.
    if (right_count < min_samples_leaf) break;
    ClassWeights right;
    right.positive = node_weights.positive - left.positive;
    right.negative = node_weights.negative - left.negative;
    const double gain = ImpurityDecrease(criterion, node_weights, left, right);
    if (gain > kMinSplitGain && (!*best || gain > (*best)->gain)) {
      HistClassSplit& s = best->emplace();
      s.feature = feature;
      s.split_bin = static_cast<uint32_t>(b);
      s.threshold = split_values[b];
      s.gain = gain;
      s.left_weights = left;
      s.right_weights = right;
      s.left_count = left_count;
      s.right_count = right_count;
    }
  }
}

void BestSseSplitOnHistogram(std::span<const SseHistBin> bins, int feature,
                             std::span<const float> split_values,
                             double total_sum, double parent_term,
                             size_t node_count, size_t min_samples_leaf,
                             double min_gain, HistSseSplit* best) {
  double left_sum = 0.0;
  size_t left_count = 0;
  for (size_t b = 0; b + 1 < bins.size(); ++b) {
    left_sum += bins[b].sum;
    left_count += bins[b].count;
    if (bins[b].count == 0) continue;
    if (left_count < min_samples_leaf) continue;
    const size_t right_count = node_count - left_count;
    if (right_count < min_samples_leaf) break;
    const double right_sum = total_sum - left_sum;
    const double gain = left_sum * left_sum / static_cast<double>(left_count) +
                        right_sum * right_sum / static_cast<double>(right_count) -
                        parent_term;
    if (gain > min_gain && gain > best->gain) {
      best->feature = feature;
      best->split_bin = static_cast<uint32_t>(b);
      best->threshold = split_values[b];
      best->gain = gain;
      best->left_sum = left_sum;
      best->left_count = left_count;
    }
  }
}

HistogramCore::HistogramCore(const BinnedColumns& binned,
                             const std::vector<int>& features)
    : binned_(&binned), features_(features), n_(binned.num_rows()) {
  slot_offset_.resize(features_.size());
  size_t offset = 0;
  for (size_t s = 0; s < features_.size(); ++s) {
    slot_offset_[s] = offset;
    offset += binned.num_bins(static_cast<size_t>(features_[s]));
  }
  total_bins_ = offset;
  rows_.resize(n_);
  std::iota(rows_.begin(), rows_.end(), 0u);
  scratch_.resize(n_);
}

size_t HistogramCore::ApplySplit(size_t begin, size_t end, int feature,
                                 uint32_t split_bin) {
  const size_t f = static_cast<size_t>(feature);
  size_t lp = begin;
  size_t rp = 0;
  if (binned_->wide()) {
    const uint16_t* codes = binned_->codes16(f);
    for (size_t i = begin; i < end; ++i) {
      const uint32_t r = rows_[i];
      if (codes[r] <= split_bin) {
        rows_[lp++] = r;
      } else {
        scratch_[rp++] = r;
      }
    }
  } else {
    const uint8_t* codes = binned_->codes8(f);
    for (size_t i = begin; i < end; ++i) {
      const uint32_t r = rows_[i];
      if (codes[r] <= split_bin) {
        rows_[lp++] = r;
      } else {
        scratch_[rp++] = r;
      }
    }
  }
  std::copy(scratch_.begin(), scratch_.begin() + static_cast<ptrdiff_t>(rp),
            rows_.begin() + static_cast<ptrdiff_t>(lp));
  return lp;
}

void HistogramCore::ClassOp(const ClassSweepConfig& config,
                            const int8_t* labels, const double* weights,
                            std::vector<ClassHistBin>* fresh,
                            std::vector<ClassHistBin>* parent,
                            size_t fresh_begin, size_t fresh_end,
                            const ClassNodeStats& fresh_stats,
                            const ClassNodeStats& remainder_stats,
                            bool sweep_fresh, bool sweep_remainder,
                            std::optional<HistClassSplit>* best_fresh,
                            std::optional<HistClassSplit>* best_remainder) {
  assert((parent != nullptr && best_remainder != nullptr) || !sweep_remainder);
  fresh->resize(total_bins_);
  const uint32_t* rows = rows_.data() + fresh_begin;
  const size_t count = fresh_end - fresh_begin;
  // Slots are swept in order into one running best with strict ">": the
  // winner is the lowest slot (then bin) reaching the maximal gain.
  best_fresh->reset();
  if (best_remainder != nullptr) best_remainder->reset();
  for (size_t s = 0; s < features_.size(); ++s) {
    const size_t f = static_cast<size_t>(features_[s]);
    const size_t nb = binned_->num_bins(f);
    ClassHistBin* fb = fresh->data() + slot_offset_[s];
    std::fill(fb, fb + nb, ClassHistBin{});
    if (binned_->wide()) {
      AccumulateClass(binned_->codes16(f), rows, count, labels, weights, fb);
    } else {
      AccumulateClass(binned_->codes8(f), rows, count, labels, weights, fb);
    }
    ClassHistBin* pb = nullptr;
    if (parent != nullptr) {
      pb = parent->data() + slot_offset_[s];
      for (size_t b = 0; b < nb; ++b) {
        pb[b].positive -= fb[b].positive;
        pb[b].negative -= fb[b].negative;
        pb[b].count -= fb[b].count;
      }
    }
    const std::span<const float> cuts = binned_->split_values(f);
    if (sweep_fresh) {
      BestClassSplitOnHistogram({fb, nb}, features_[s], cuts, config.criterion,
                                fresh_stats.weights, fresh_stats.count,
                                config.min_samples_leaf, best_fresh);
    }
    if (sweep_remainder) {
      BestClassSplitOnHistogram({pb, nb}, features_[s], cuts, config.criterion,
                                remainder_stats.weights, remainder_stats.count,
                                config.min_samples_leaf, best_remainder);
    }
  }
}

void HistogramCore::SseOp(const SseSweepConfig& config, const double* targets,
                          std::vector<SseHistBin>* fresh,
                          std::vector<SseHistBin>* parent, size_t fresh_begin,
                          size_t fresh_end, const SseNodeStats& fresh_stats,
                          const SseNodeStats& remainder_stats, bool sweep_fresh,
                          bool sweep_remainder, HistSseSplit* best_fresh,
                          HistSseSplit* best_remainder) {
  assert((parent != nullptr && best_remainder != nullptr) || !sweep_remainder);
  fresh->resize(total_bins_);
  const uint32_t* rows = rows_.data() + fresh_begin;
  const size_t count = fresh_end - fresh_begin;
  const double fresh_term =
      fresh_stats.count == 0
          ? 0.0
          : fresh_stats.sum * fresh_stats.sum /
                static_cast<double>(fresh_stats.count);
  const double remainder_term =
      remainder_stats.count == 0
          ? 0.0
          : remainder_stats.sum * remainder_stats.sum /
                static_cast<double>(remainder_stats.count);
  // Same running best as ClassOp; a split must beat gain 0 and min_gain.
  *best_fresh = HistSseSplit{};
  if (best_remainder != nullptr) *best_remainder = HistSseSplit{};
  for (size_t s = 0; s < features_.size(); ++s) {
    const size_t f = static_cast<size_t>(features_[s]);
    const size_t nb = binned_->num_bins(f);
    SseHistBin* fb = fresh->data() + slot_offset_[s];
    std::fill(fb, fb + nb, SseHistBin{});
    if (binned_->wide()) {
      AccumulateSse(binned_->codes16(f), rows, count, targets, fb);
    } else {
      AccumulateSse(binned_->codes8(f), rows, count, targets, fb);
    }
    SseHistBin* pb = nullptr;
    if (parent != nullptr) {
      pb = parent->data() + slot_offset_[s];
      for (size_t b = 0; b < nb; ++b) {
        pb[b].sum -= fb[b].sum;
        pb[b].count -= fb[b].count;
      }
    }
    const std::span<const float> cuts = binned_->split_values(f);
    if (sweep_fresh) {
      BestSseSplitOnHistogram({fb, nb}, features_[s], cuts, fresh_stats.sum,
                              fresh_term, fresh_stats.count,
                              config.min_samples_leaf, config.min_gain, best_fresh);
    }
    if (sweep_remainder) {
      BestSseSplitOnHistogram({pb, nb}, features_[s], cuts, remainder_stats.sum,
                              remainder_term, remainder_stats.count,
                              config.min_samples_leaf, config.min_gain,
                              best_remainder);
    }
  }
}

}  // namespace treewm::tree
