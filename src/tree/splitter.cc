#include "tree/splitter.h"

#include <algorithm>

namespace treewm::tree {

namespace {

// A value/label/weight triple for one instance under one feature.
struct Entry {
  float value;
  int8_t label;
  double weight;
};

}  // namespace

Splitter::Splitter(const data::Dataset& dataset, const std::vector<double>& weights)
    : dataset_(dataset), weights_(weights) {}

ClassWeights Splitter::ComputeWeights(const std::vector<size_t>& indices) const {
  ClassWeights w;
  for (size_t idx : indices) w.Add(dataset_.Label(idx), weights_[idx]);
  return w;
}

std::optional<SplitCandidate> Splitter::FindBestSplit(
    const std::vector<size_t>& indices, const std::vector<int>& features,
    const ClassWeights& node_weights) const {
  const size_t n = indices.size();
  if (n < 2) return std::nullopt;

  std::optional<SplitCandidate> best;
  std::vector<Entry> entries(n);

  for (int feature : features) {
    const size_t f = static_cast<size_t>(feature);
    for (size_t i = 0; i < n; ++i) {
      const size_t idx = indices[i];
      entries[i] = {dataset_.At(idx, f), static_cast<int8_t>(dataset_.Label(idx)),
                    weights_[idx]};
    }
    // Stable: value ties keep `indices` order. This pins the accumulation
    // order of tied runs (a *specified* contract, where plain sort left it
    // to the introsort permutation), and it is the order the presorted
    // engine reproduces — required for bit-identical FP sums when weights
    // differ within a tie run.
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) { return a.value < b.value; });
    if (entries.front().value == entries.back().value) continue;  // constant feature

    ClassWeights left;
    ClassWeights right = node_weights;
    size_t left_count = 0;
    for (size_t i = 0; i + 1 < n; ++i) {
      left.Add(entries[i].label, entries[i].weight);
      right.Remove(entries[i].label, entries[i].weight);
      ++left_count;
      // Only cut between distinct values.
      if (entries[i].value == entries[i + 1].value) continue;
      const double gain = ImpurityDecrease(node_weights, left, right);
      if (gain > kMinSplitGain && (!best || gain > best->gain)) {
        SplitCandidate candidate;
        candidate.feature = feature;
        // Midpoint threshold; guaranteed >= left value and < right value.
        candidate.threshold =
            entries[i].value + (entries[i + 1].value - entries[i].value) * 0.5f;
        // Degenerate float midpoints (values one ulp apart) collapse onto the
        // right value; fall back to the left value so "x <= t" still separates.
        if (candidate.threshold >= entries[i + 1].value) {
          candidate.threshold = entries[i].value;
        }
        candidate.gain = gain;
        candidate.left_weights = left;
        candidate.right_weights = right;
        candidate.left_count = left_count;
        candidate.right_count = n - left_count;
        best = candidate;
      }
    }
  }
  return best;
}

void Splitter::Partition(const std::vector<size_t>& indices, const SplitCandidate& split,
                         std::vector<size_t>* left, std::vector<size_t>* right) const {
  left->clear();
  right->clear();
  const size_t f = static_cast<size_t>(split.feature);
  for (size_t idx : indices) {
    if (dataset_.At(idx, f) <= split.threshold) {
      left->push_back(idx);
    } else {
      right->push_back(idx);
    }
  }
}

}  // namespace treewm::tree
