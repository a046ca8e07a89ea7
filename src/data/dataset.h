// In-memory tabular dataset for binary classification.
//
// Instances live in X ⊆ R^d with real-valued features (stored as float,
// normalized to [0,1] by convention throughout treewm) and labels in
// Y = {+1, -1}, matching the paper's setting (§2). Storage is row-major so a
// tree traversal touches one contiguous row.

#ifndef TREEWM_DATA_DATASET_H_
#define TREEWM_DATA_DATASET_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace treewm::data {

/// Binary class labels used across treewm.
inline constexpr int kPositive = +1;
inline constexpr int kNegative = -1;

/// A labeled dataset: n rows of d float features plus ±1 labels.
class Dataset {
 public:
  /// Creates an empty dataset whose rows will have `num_features` features.
  explicit Dataset(size_t num_features = 0) : num_features_(num_features) {}

  /// Human-readable name (e.g. "mnist2-6-like"); used in reports.
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Number of instances.
  size_t num_rows() const { return labels_.size(); }

  /// Number of features (d).
  size_t num_features() const { return num_features_; }

  /// Pre-allocates storage for `n` rows.
  void Reserve(size_t n);

  /// Appends one instance. `features.size()` must equal num_features() and
  /// `label` must be +1 or -1.
  [[nodiscard]] Status AddRow(std::span<const float> features, int label);

  /// Feature j of row i (unchecked in release builds).
  float At(size_t i, size_t j) const {
    return values_[i * num_features_ + j];
  }

  /// Mutates feature j of row i.
  void SetAt(size_t i, size_t j, float v) { values_[i * num_features_ + j] = v; }

  /// Contiguous view of row i.
  std::span<const float> Row(size_t i) const {
    return {values_.data() + i * num_features_, num_features_};
  }

  /// Label of row i (+1 or -1).
  int Label(size_t i) const { return labels_[i]; }

  /// Overwrites the label of row i. `label` must be +1 or -1.
  void SetLabel(size_t i, int label);

  /// All labels.
  const std::vector<int8_t>& labels() const { return labels_; }

  /// Raw feature buffer (row-major, num_rows × num_features).
  const std::vector<float>& values() const { return values_; }

  /// Number of rows labeled +1.
  size_t NumPositive() const;

  /// Fraction of rows labeled +1 (0 when empty).
  double PositiveFraction() const;

  /// Returns a new dataset containing rows at `indices` (in that order).
  /// Indices may repeat; out-of-range indices are a programming error.
  Dataset Subset(const std::vector<size_t>& indices) const;

  /// Appends all rows of `other`; feature counts must match.
  [[nodiscard]] Status Concat(const Dataset& other);

  /// Smallest/largest value of feature j; requires at least one row.
  float FeatureMin(size_t j) const;
  float FeatureMax(size_t j) const;

  /// True if every feature of every row lies in [lo, hi].
  bool AllValuesWithin(float lo, float hi) const;

 private:
  std::string name_;
  size_t num_features_;
  std::vector<float> values_;
  std::vector<int8_t> labels_;
};

/// One (features, label) pair — convenience for building trigger sets.
struct Instance {
  std::vector<float> features;
  int label = kPositive;
};

}  // namespace treewm::data

#endif  // TREEWM_DATA_DATASET_H_
