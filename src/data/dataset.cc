#include "data/dataset.h"

#include <algorithm>
#include <cassert>

#include "common/string_util.h"

namespace treewm::data {

void Dataset::Reserve(size_t n) {
  values_.reserve(n * num_features_);
  labels_.reserve(n);
}

Status Dataset::AddRow(std::span<const float> features, int label) {
  if (features.size() != num_features_) {
    return Status::InvalidArgument(
        StrFormat("row has %zu features, dataset expects %zu", features.size(),
                  num_features_));
  }
  if (label != kPositive && label != kNegative) {
    return Status::InvalidArgument(StrFormat("label must be +1 or -1, got %d", label));
  }
  values_.insert(values_.end(), features.begin(), features.end());
  labels_.push_back(static_cast<int8_t>(label));
  return Status::OK();
}

void Dataset::SetLabel(size_t i, int label) {
  assert(label == kPositive || label == kNegative);
  labels_[i] = static_cast<int8_t>(label);
}

size_t Dataset::NumPositive() const {
  return static_cast<size_t>(
      std::count(labels_.begin(), labels_.end(), static_cast<int8_t>(kPositive)));
}

double Dataset::PositiveFraction() const {
  if (labels_.empty()) return 0.0;
  return static_cast<double>(NumPositive()) / static_cast<double>(labels_.size());
}

Dataset Dataset::Subset(const std::vector<size_t>& indices) const {
  Dataset out(num_features_);
  out.set_name(name_);
  out.Reserve(indices.size());
  for (size_t idx : indices) {
    assert(idx < num_rows());
    out.values_.insert(out.values_.end(), values_.begin() + idx * num_features_,
                       values_.begin() + (idx + 1) * num_features_);
    out.labels_.push_back(labels_[idx]);
  }
  return out;
}

Status Dataset::Concat(const Dataset& other) {
  if (other.num_features_ != num_features_) {
    return Status::InvalidArgument("feature count mismatch in Concat");
  }
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
  return Status::OK();
}

float Dataset::FeatureMin(size_t j) const {
  assert(num_rows() > 0);
  float lo = At(0, j);
  for (size_t i = 1; i < num_rows(); ++i) lo = std::min(lo, At(i, j));
  return lo;
}

float Dataset::FeatureMax(size_t j) const {
  assert(num_rows() > 0);
  float hi = At(0, j);
  for (size_t i = 1; i < num_rows(); ++i) hi = std::max(hi, At(i, j));
  return hi;
}

bool Dataset::AllValuesWithin(float lo, float hi) const {
  for (float v : values_) {
    if (v < lo || v > hi) return false;
  }
  return true;
}

}  // namespace treewm::data
