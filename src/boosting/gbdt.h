// Gradient-boosted decision trees for binary classification.
//
// The baseline/future-work ensemble family from the paper's conclusion (§5).
// Standard logit boosting: additive model F(x) = F0 + lr * Σ t_k(x), trees
// fit to the logistic-loss gradient with Newton-step leaf values. Serves two
// purposes here: (1) quantifying the accuracy headroom a watermarkable
// random forest gives up (bench/ext_gbdt_baseline), and (2) demonstrating
// why the paper's per-tree-vote watermark does not transfer unchanged —
// boosted trees emit real-valued increments, not class votes, so the
// signature channel of §3.2 does not exist (see GbdtWatermarkabilityNote()).

#ifndef TREEWM_BOOSTING_GBDT_H_
#define TREEWM_BOOSTING_GBDT_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "boosting/regression_tree.h"
#include "common/status.h"
#include "data/dataset.h"
#include "predict/flat_cache.h"

namespace treewm::boosting {

/// Boosting hyper-parameters. Every tree's contribution is shrunk by a
/// fixed learning rate of 0.1 (Gbdt::learning_rate()).
struct GbdtConfig {
  /// Number of boosting rounds (trees).
  size_t num_trees = 100;
  /// Member-tree induction parameters (shallow by default).
  RegressionTreeConfig tree;
  /// Fit member trees with the retained naive trainer
  /// (RegressionTree::FitReference) instead of the sort-once engine. Slow;
  /// exists so the bit-identical equivalence contract is testable end to
  /// end through the boosting loop (and as the bench baseline).
  bool use_reference_trainer = false;

  [[nodiscard]] Status Validate() const;
};

/// An immutable trained GBDT binary classifier.
class Gbdt {
 public:
  /// Trains on labels ±1 with logistic loss. The rounds run serially; the
  /// one column sort fans out on ThreadPool::Global().
  [[nodiscard]] static Result<Gbdt> Fit(const data::Dataset& dataset, const GbdtConfig& config);

  /// Raw additive score F(x) (log-odds scale).
  double Score(std::span<const float> row) const;

  /// Class prediction: sign of the score (0 -> +1 for determinism).
  int Predict(std::span<const float> row) const;

  /// Accuracy on `dataset`, on the process pool; to pick a pool, or for the
  /// staged-accuracy curve, use predict::BatchPredictor.
  double Accuracy(const data::Dataset& dataset) const;

  size_t num_trees() const { return trees_.size(); }
  const std::vector<RegressionTree>& trees() const { return trees_; }
  double initial_score() const { return initial_score_; }
  double learning_rate() const { return learning_rate_; }

 private:
  Gbdt() = default;

  /// Packed inference image, built lazily on the first batch call and shared
  /// across calls (and copies) — the model is immutable after Fit, so the
  /// cache can never go stale.
  std::shared_ptr<const predict::FlatEnsemble> Flat() const;

  std::vector<RegressionTree> trees_;
  double initial_score_ = 0.0;
  double learning_rate_ = 0.1;
  size_t num_features_ = 0;
  mutable predict::FlatCacheSlot flat_cache_;
};

/// Why Algorithm 1 does not port verbatim to boosting — the analysis the
/// paper defers to future work, stated precisely for documentation and
/// examples.
std::string GbdtWatermarkabilityNote();

}  // namespace treewm::boosting

#endif  // TREEWM_BOOSTING_GBDT_H_
