#include "forest/random_forest.h"

#include <cassert>
#include <cmath>

#include "common/rng.h"
#include "common/string_util.h"
#include "predict/batch_predictor.h"
#include "predict/flat_cache.h"

namespace treewm::forest {

Status ForestConfig::Validate() const {
  if (num_trees == 0) return Status::InvalidArgument("num_trees must be >= 1");
  if (feature_fraction < 0.0 || feature_fraction > 1.0) {
    return Status::InvalidArgument("feature_fraction must be in [0,1]");
  }
  return tree.Validate();
}

namespace {

/// Number of features each tree sees: fraction of d, or sqrt(d) when 0.
size_t FeaturesPerTree(double fraction, size_t d) {
  size_t k;
  if (fraction <= 0.0) {
    k = static_cast<size_t>(std::llround(std::sqrt(static_cast<double>(d))));
  } else {
    k = static_cast<size_t>(std::llround(fraction * static_cast<double>(d)));
  }
  if (k < 1) k = 1;
  if (k > d) k = d;
  return k;
}

}  // namespace

std::shared_ptr<const tree::SortedColumns> BuildTrainingColumns(
    const data::Dataset& dataset, const ForestConfig& config) {
  if (config.use_reference_trainer) return nullptr;
  return tree::SortedColumns::Build(dataset, config.pool);
}

ForestTrainer::ForestTrainer(const data::Dataset& dataset, const ForestConfig& config)
    : dataset_(&dataset), config_(config) {
  // Pre-draw every tree's feature subset so parallel scheduling cannot
  // change results.
  const size_t d = dataset.num_features();
  const size_t features_per_tree = FeaturesPerTree(config.feature_fraction, d);
  Rng rng(config.seed);
  subsets_.resize(config.num_trees);
  for (auto& subset : subsets_) {
    std::vector<size_t> picked = rng.SampleWithoutReplacement(d, features_per_tree);
    subset.reserve(picked.size());
    for (size_t f : picked) subset.push_back(static_cast<int>(f));
  }
}

Result<ForestTrainer> ForestTrainer::Create(
    const data::Dataset& dataset, const ForestConfig& config,
    std::shared_ptr<const tree::SortedColumns> sorted) {
  TREEWM_RETURN_IF_ERROR(config.Validate());
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("cannot fit a forest on an empty dataset");
  }
  TREEWM_RETURN_IF_ERROR(tree::ValidateColumnsMatch(sorted.get(), dataset));

  ForestTrainer trainer(dataset, config);
  // One column sort per dataset, shared immutably across all workers; every
  // tree's TrainerCore copies just its subset's presorted columns.
  trainer.sorted_ =
      sorted != nullptr ? std::move(sorted) : BuildTrainingColumns(dataset, config);
  return trainer;
}

Result<tree::DecisionTree> ForestTrainer::Fit(size_t tree,
                                              const std::vector<double>& weights) const {
  const std::vector<int>& subset = subsets_[tree];
  return config_.use_reference_trainer
             ? tree::DecisionTree::FitReference(*dataset_, weights, config_.tree, subset)
             : tree::DecisionTree::Fit(*dataset_, weights, config_.tree, subset,
                                       sorted_.get());
}

Result<std::vector<tree::DecisionTree>> FitTrees(
    ThreadPool* pool, size_t count,
    const std::function<Result<tree::DecisionTree>(size_t)>& fit) {
  std::vector<Result<tree::DecisionTree>> fitted(
      count, Result<tree::DecisionTree>(Status::Internal("tree not fitted")));
  ParallelFor(pool, count, [&](size_t i) { fitted[i] = fit(i); });
  std::vector<tree::DecisionTree> trees;
  trees.reserve(count);
  for (Result<tree::DecisionTree>& tree : fitted) {
    if (!tree.ok()) return tree.status();
    trees.push_back(std::move(tree).MoveValue());
  }
  return trees;
}

Result<RandomForest> RandomForest::Fit(
    const data::Dataset& dataset, const std::vector<double>& weights,
    const ForestConfig& config, std::shared_ptr<const tree::SortedColumns> sorted) {
  // Checked here (not just per tree) so a bad weight vector fails before any
  // column sort or thread fan-out happens.
  if (!weights.empty() && weights.size() != dataset.num_rows()) {
    return Status::InvalidArgument(
        StrFormat("weights size %zu != rows %zu", weights.size(), dataset.num_rows()));
  }
  TREEWM_ASSIGN_OR_RETURN(
      ForestTrainer trainer,
      ForestTrainer::Create(dataset, config, std::move(sorted)));
  TREEWM_ASSIGN_OR_RETURN(
      std::vector<tree::DecisionTree> trees,
      FitTrees(config.pool, trainer.num_trees(),
               [&](size_t t) { return trainer.Fit(t, weights); }));
  RandomForest forest;
  forest.trees_ = std::move(trees);
  forest.num_features_ = dataset.num_features();
  return forest;
}

Result<RandomForest> RandomForest::FromTrees(std::vector<tree::DecisionTree> trees) {
  if (trees.empty()) return Status::InvalidArgument("forest needs at least one tree");
  const size_t d = trees.front().num_features();
  for (const auto& t : trees) {
    if (t.num_features() != d) {
      return Status::InvalidArgument("trees disagree on num_features");
    }
  }
  RandomForest forest;
  forest.trees_ = std::move(trees);
  forest.num_features_ = d;
  return forest;
}

int RandomForest::Predict(std::span<const float> row) const {
  int vote_sum = 0;
  for (const auto& t : trees_) vote_sum += t.Predict(row);
  return vote_sum >= 0 ? data::kPositive : data::kNegative;
}

std::vector<int> RandomForest::PredictAll(std::span<const float> row) const {
  std::vector<int> votes(trees_.size());
  for (size_t t = 0; t < trees_.size(); ++t) votes[t] = trees_[t].Predict(row);
  return votes;
}

// All batch paths route through the flat engine (scalar per-row Predict /
// PredictAll above remain the reference; see predict/reference.h).

std::shared_ptr<const predict::FlatEnsemble> RandomForest::Flat() const {
  return predict::LazyFlat(&flat_cache_, [this] {
    return predict::FlatEnsemble::FromClassificationTrees(trees_);
  });
}

std::vector<int> RandomForest::PredictBatch(const data::Dataset& dataset) const {
  return predict::BatchPredictor(Flat()).PredictLabels(dataset);
}

predict::VoteMatrix RandomForest::PredictAllVotes(const data::Dataset& dataset) const {
  return predict::BatchPredictor(Flat()).PredictAllVotes(dataset);
}

double RandomForest::Accuracy(const data::Dataset& dataset) const {
  return predict::BatchPredictor(Flat()).LabelAccuracy(dataset);
}

std::vector<double> RandomForest::TreeDepths() const {
  std::vector<double> out(trees_.size());
  for (size_t t = 0; t < trees_.size(); ++t) {
    out[t] = static_cast<double>(trees_[t].Depth());
  }
  return out;
}

std::vector<double> RandomForest::TreeLeafCounts() const {
  std::vector<double> out(trees_.size());
  for (size_t t = 0; t < trees_.size(); ++t) {
    out[t] = static_cast<double>(trees_[t].NumLeaves());
  }
  return out;
}

JsonValue RandomForest::ToJson() const {
  JsonValue out = JsonValue::MakeObject();
  out.Set("num_features", JsonValue(num_features_));
  JsonValue trees = JsonValue::MakeArray();
  for (const auto& t : trees_) trees.Append(t.ToJson());
  out.Set("trees", std::move(trees));
  return out;
}

Result<RandomForest> RandomForest::FromJson(const JsonValue& json) {
  if (!json.is_object()) return Status::ParseError("forest JSON must be an object");
  TREEWM_ASSIGN_OR_RETURN(const JsonValue* trees_json, json.Get("trees"));
  if (!trees_json->is_array() || trees_json->AsArray().empty()) {
    return Status::ParseError("'trees' must be a non-empty array");
  }
  std::vector<tree::DecisionTree> trees;
  trees.reserve(trees_json->AsArray().size());
  for (const JsonValue& tree_json : trees_json->AsArray()) {
    TREEWM_ASSIGN_OR_RETURN(tree::DecisionTree t, tree::DecisionTree::FromJson(tree_json));
    trees.push_back(std::move(t));
  }
  return FromTrees(std::move(trees));
}

}  // namespace treewm::forest
