#include "boosting/gbdt.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "predict/batch_predictor.h"
#include "predict/flat_cache.h"

namespace treewm::boosting {

Status GbdtConfig::Validate() const {
  if (num_trees == 0) return Status::InvalidArgument("num_trees must be >= 1");
  return tree.Validate();
}

namespace {

/// Shrinkage applied to every tree's contribution.
constexpr double kLearningRate = 0.1;

double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

Result<Gbdt> Gbdt::Fit(const data::Dataset& dataset, const GbdtConfig& config) {
  TREEWM_RETURN_IF_ERROR(config.Validate());
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("cannot fit on an empty dataset");
  }

  const size_t n = dataset.num_rows();
  Gbdt model;
  model.num_features_ = dataset.num_features();
  model.learning_rate_ = kLearningRate;

  // F0 = log-odds of the positive class (clamped for degenerate datasets).
  const double pos = std::clamp(dataset.PositiveFraction(), 1e-6, 1.0 - 1e-6);
  model.initial_score_ = std::log(pos / (1.0 - pos));

  std::vector<double> scores(n, model.initial_score_);
  std::vector<double> residuals(n);
  model.trees_.reserve(config.num_trees);

  // The row set never changes across boosting rounds, so the column sort is
  // paid ONCE here and amortized over every tree of every stage (the big
  // sort-once multiplier for GBDT). It fans out on the process pool; the
  // rounds themselves are serial.
  std::shared_ptr<const tree::SortedColumns> sorted;
  if (!config.use_reference_trainer) {
    sorted = tree::SortedColumns::Build(dataset, &ThreadPool::Global());
  }

  for (size_t round = 0; round < config.num_trees; ++round) {
    // Negative gradient of logistic loss: y01 - sigmoid(F).
    for (size_t i = 0; i < n; ++i) {
      const double y01 = dataset.Label(i) > 0 ? 1.0 : 0.0;
      residuals[i] = y01 - Sigmoid(scores[i]);
    }
    TREEWM_ASSIGN_OR_RETURN(
        RegressionTree tree,
        config.use_reference_trainer
            ? RegressionTree::FitReference(dataset, residuals, config.tree)
            : RegressionTree::Fit(dataset, residuals, config.tree, sorted.get()));

    // Newton step per leaf: gamma = sum(residual) / sum(p(1-p)).
    std::vector<double> numerator(tree.nodes().size(), 0.0);
    std::vector<double> denominator(tree.nodes().size(), 0.0);
    std::vector<int> leaf_of(n);
    for (size_t i = 0; i < n; ++i) {
      const int leaf = tree.LeafIndexFor(dataset.Row(i));
      leaf_of[i] = leaf;
      const double p = Sigmoid(scores[i]);
      numerator[static_cast<size_t>(leaf)] += residuals[i];
      denominator[static_cast<size_t>(leaf)] += p * (1.0 - p);
    }
    for (size_t node = 0; node < tree.nodes().size(); ++node) {
      if (tree.nodes()[node].feature != -1) continue;
      const double gamma =
          denominator[node] > 1e-12 ? numerator[node] / denominator[node] : 0.0;
      TREEWM_RETURN_IF_ERROR(
          tree.SetLeafValue(static_cast<int>(node), gamma));
    }
    for (size_t i = 0; i < n; ++i) {
      scores[i] += kLearningRate * tree.nodes()[static_cast<size_t>(leaf_of[i])].value;
    }
    model.trees_.push_back(std::move(tree));
  }
  return model;
}

double Gbdt::Score(std::span<const float> row) const {
  double score = initial_score_;
  for (const RegressionTree& tree : trees_) {
    score += learning_rate_ * tree.Predict(row);
  }
  return score;
}

int Gbdt::Predict(std::span<const float> row) const {
  return Score(row) >= 0.0 ? data::kPositive : data::kNegative;
}

// Batch paths route through the flat engine; the per-row Score/Predict above
// remain the scalar reference. Flat accumulation visits trees in the same
// ascending order with the same operation sequence, so accuracies (and the
// underlying scores) are bit-exact with the scalar loop.

std::shared_ptr<const predict::FlatEnsemble> Gbdt::Flat() const {
  return predict::LazyFlat(&flat_cache_, [this] {
    return predict::FlatEnsemble::FromRegressionTrees(trees_, initial_score_,
                                                      learning_rate_);
  });
}

double Gbdt::Accuracy(const data::Dataset& dataset) const {
  return predict::BatchPredictor(Flat()).ScoreAccuracy(dataset);
}

std::string GbdtWatermarkabilityNote() {
  return
      "Algorithm 1 encodes the signature in per-tree *class votes* on the "
      "trigger set: tree i classifies correctly iff sigma_i = 0, which is "
      "well-defined because every random-forest member is itself a "
      "classifier and members are exchangeable. Gradient-boosted trees "
      "break both properties: (1) members emit real-valued score "
      "increments, so 'tree i misclassifies x' has no canonical meaning; "
      "(2) members are sequentially coupled — each tree fits the residual "
      "left by its predecessors — so forcing abnormal behaviour into tree i "
      "changes the training targets of every later tree, and trees cannot "
      "be interleaved from independently trained pools as Algorithm 1 "
      "requires. A boosting-native scheme must therefore pick a different "
      "signature channel (e.g. signs of per-tree increments on the trigger "
      "set, or thresholded partial sums), which changes the verification "
      "statistics and the forgery theory; that design space is exactly what "
      "the paper defers to future work.";
}

}  // namespace treewm::boosting
