// Scalar reference batch loops — the ground truth the flat engine must match.
//
// These are the original per-row, per-tree batch implementations, kept as
// free functions so equivalence tests and benchmarks can compare the
// BatchPredictor against them bit for bit: each loop is the spec of one
// engine output (labels behind VoteMatrix::MajorityLabel, PredictAllVotes,
// LabelAccuracy, ScoreAccuracy, StagedAccuracyCurve). The model classes'
// batch methods (RandomForest::PredictAllVotes and Accuracy, Gbdt::Accuracy)
// route through predict::BatchPredictor; these loops call only the scalar
// per-row APIs (Predict / PredictAll / Score), which are unchanged.

#ifndef TREEWM_PREDICT_REFERENCE_H_
#define TREEWM_PREDICT_REFERENCE_H_

#include <algorithm>
#include <vector>

#include "boosting/gbdt.h"
#include "data/dataset.h"
#include "forest/random_forest.h"
#include "predict/vote_matrix.h"

namespace treewm::predict::reference {

/// Per-row majority labels (ties -> +1): the spec of VoteMatrix::MajorityLabel.
inline std::vector<int> MajorityLabels(const forest::RandomForest& forest,
                                       const data::Dataset& dataset) {
  std::vector<int> out(dataset.num_rows());
  for (size_t i = 0; i < dataset.num_rows(); ++i) out[i] = forest.Predict(dataset.Row(i));
  return out;
}

/// Per-row PredictAll, stored in the VoteMatrix shape the engine returns.
inline VoteMatrix PredictAllBatch(const forest::RandomForest& forest,
                                  const data::Dataset& dataset) {
  VoteMatrix out(dataset.num_rows(), forest.num_trees());
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    const std::vector<int> votes = forest.PredictAll(dataset.Row(i));
    std::copy(votes.begin(), votes.end(), out.mutable_row(i));
  }
  return out;
}

inline double Accuracy(const forest::RandomForest& forest, const data::Dataset& dataset) {
  if (dataset.num_rows() == 0) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    if (forest.Predict(dataset.Row(i)) == dataset.Label(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.num_rows());
}

inline double Accuracy(const boosting::Gbdt& model, const data::Dataset& dataset) {
  if (dataset.num_rows() == 0) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    if (model.Predict(dataset.Row(i)) == dataset.Label(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.num_rows());
}

/// Accuracy of the k-tree prefix, re-scoring every row from scratch (the
/// original O(k) per call StagedAccuracy loop).
inline double StagedAccuracy(const boosting::Gbdt& model, const data::Dataset& dataset,
                             size_t k) {
  if (dataset.num_rows() == 0) return 0.0;
  k = std::min(k, model.num_trees());
  size_t correct = 0;
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    double score = model.initial_score();
    for (size_t t = 0; t < k; ++t) {
      score += model.learning_rate() * model.trees()[t].Predict(dataset.Row(i));
    }
    const int prediction = score >= 0.0 ? data::kPositive : data::kNegative;
    if (prediction == dataset.Label(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.num_rows());
}

}  // namespace treewm::predict::reference

#endif  // TREEWM_PREDICT_REFERENCE_H_
