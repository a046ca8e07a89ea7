#include "core/train_with_trigger.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"

namespace treewm::core {

namespace {

bool TreeMatchesTrigger(const tree::DecisionTree& tree, const data::Dataset& dataset,
                        const std::vector<size_t>& trigger_indices) {
  for (size_t idx : trigger_indices) {
    if (tree.Predict(dataset.Row(idx)) != dataset.Label(idx)) return false;
  }
  return true;
}

Status ValidateTriggerInputs(const data::Dataset& dataset,
                             const std::vector<size_t>& trigger_indices,
                             const TriggerTrainingConfig& config) {
  if (trigger_indices.empty()) {
    return Status::InvalidArgument("trigger set must be non-empty");
  }
  for (size_t idx : trigger_indices) {
    if (idx >= dataset.num_rows()) {
      return Status::InvalidArgument(StrFormat("trigger index %zu out of range", idx));
    }
  }
  if (config.weight_increment <= 0.0) {
    return Status::InvalidArgument("weight_increment must be positive");
  }
  return Status::OK();
}

void WarnNotConverged(const TriggerTrainingConfig& config) {
  LogWarning(StrFormat(
      "TrainWithTrigger: %zu rounds exhausted without full trigger agreement",
      config.max_boost_rounds));
}

}  // namespace

bool AllTreesMatchTrigger(const forest::RandomForest& forest,
                          const data::Dataset& dataset,
                          const std::vector<size_t>& trigger_indices) {
  return std::all_of(forest.trees().begin(), forest.trees().end(),
                     [&](const tree::DecisionTree& t) {
                       return TreeMatchesTrigger(t, dataset, trigger_indices);
                     });
}

Result<TriggerTrainingResult> TrainWithTrigger(
    const data::Dataset& dataset, const std::vector<size_t>& trigger_indices,
    const TriggerTrainingConfig& config) {
  TREEWM_RETURN_IF_ERROR(ValidateTriggerInputs(dataset, trigger_indices, config));
  TREEWM_ASSIGN_OR_RETURN(forest::ForestTrainer trainer,
                          forest::ForestTrainer::Create(dataset, config.forest));
  const size_t m = trainer.num_trees();
  const size_t last_round = config.max_boost_rounds;
  const size_t width = trainer.Concurrency();

  // Round r's trigger weight, grown by the linear loop's repeated addition
  // so every round trains on bit-identical weights.
  std::vector<double> round_weight = {1.0};
  auto weights_at = [&](size_t round) {
    while (round_weight.size() <= round) {
      round_weight.push_back(round_weight.back() + config.weight_increment);
    }
    std::vector<double> weights(dataset.num_rows(), 1.0);
    for (size_t idx : trigger_indices) weights[idx] = round_weight[round];
    return weights;
  };
  auto matches = [&](const tree::DecisionTree& t) {
    return TreeMatchesTrigger(t, dataset, trigger_indices);
  };
  size_t tree_fits = 0;
  auto finish = [&](std::vector<tree::DecisionTree> trees, size_t round,
                    bool converged) -> Result<TriggerTrainingResult> {
    TREEWM_ASSIGN_OR_RETURN(forest::RandomForest forest,
                            forest::RandomForest::FromTrees(std::move(trees)));
    TriggerTrainingResult result{std::move(forest)};
    result.boost_rounds = round;
    result.converged = converged;
    result.final_trigger_weight = round_weight[round];
    result.tree_fits = tree_fits;
    return result;
  };

  // Fail-first order: order[0] is the lead, the tree that failed last.
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<forest::ForestTrainer::Job> jobs;
  // Invariant: some tree fails at every round before `next`.
  for (size_t next = 0; next <= last_round;) {
    // The lead alone at the next `width` rounds, one fit per worker.
    const size_t window = std::min(width - 1, last_round - next) + 1;
    std::vector<std::vector<double>> weights(window);
    jobs.clear();
    for (size_t i = 0; i < window; ++i) {
      weights[i] = weights_at(next + i);
      jobs.push_back({order[0], &weights[i]});
    }
    TREEWM_ASSIGN_OR_RETURN(std::vector<tree::DecisionTree> lead, trainer.FitTrees(jobs));
    tree_fits += window;
    const auto hit = std::find_if(lead.begin(), lead.end(), matches);
    if (hit == lead.end()) {
      next += window;
      continue;
    }
    // The lead matches at `round`: fit every other tree there.
    const size_t offset = static_cast<size_t>(hit - lead.begin());
    const size_t round = next + offset;
    jobs.clear();
    for (size_t t = 0; t < m; ++t) {
      if (t != order[0]) jobs.push_back({t, &weights[offset]});
    }
    TREEWM_ASSIGN_OR_RETURN(std::vector<tree::DecisionTree> trees, trainer.FitTrees(jobs));
    tree_fits += m - 1;
    trees.insert(trees.begin() + static_cast<std::ptrdiff_t>(order[0]), std::move(*hit));
    const auto failing = std::find_if(order.begin(), order.end(),
                                      [&](size_t t) { return !matches(trees[t]); });
    if (failing == order.end()) return finish(std::move(trees), round, true);
    std::rotate(order.begin(), failing, failing + 1);
    next = round + 1;
  }

  // No round up to the cap matched: return the linear loop's last forest.
  const std::vector<double> weights = weights_at(last_round);
  jobs.clear();
  for (size_t t = 0; t < m; ++t) jobs.push_back({t, &weights});
  TREEWM_ASSIGN_OR_RETURN(std::vector<tree::DecisionTree> trees, trainer.FitTrees(jobs));
  tree_fits += m;
  WarnNotConverged(config);
  return finish(std::move(trees), last_round, false);
}

Result<TriggerTrainingResult> TrainWithTriggerReference(
    const data::Dataset& dataset, const std::vector<size_t>& trigger_indices,
    const TriggerTrainingConfig& config) {
  TREEWM_RETURN_IF_ERROR(ValidateTriggerInputs(dataset, trigger_indices, config));

  std::vector<double> weights(dataset.num_rows(), 1.0);  // Algorithm 1 line 3
  double trigger_weight = 1.0;

  // Sample weights never change the per-feature sort order, so the column
  // sort is paid once here and shared across EVERY weight-boosting retrain.
  // Validate the forest config first so a bad config fails before the sort.
  TREEWM_RETURN_IF_ERROR(config.forest.Validate());
  const std::shared_ptr<const tree::SortedColumns> sorted =
      forest::BuildTrainingColumns(dataset, config.forest);

  forest::ForestConfig forest_config = config.forest;
  TREEWM_ASSIGN_OR_RETURN(
      forest::RandomForest model,
      forest::RandomForest::Fit(dataset, weights, forest_config, sorted));

  TriggerTrainingResult result{std::move(model)};
  result.tree_fits = forest_config.num_trees;
  for (size_t round = 0; round < config.max_boost_rounds; ++round) {
    if (AllTreesMatchTrigger(result.forest, dataset, trigger_indices)) {
      result.converged = true;
      result.final_trigger_weight = trigger_weight;
      return result;
    }
    // Algorithm 1 lines 6-8: bump every trigger weight, retrain everything.
    trigger_weight += config.weight_increment;
    for (size_t idx : trigger_indices) weights[idx] = trigger_weight;
    ++result.boost_rounds;
    TREEWM_ASSIGN_OR_RETURN(
        result.forest,
        forest::RandomForest::Fit(dataset, weights, forest_config, sorted));
    result.tree_fits += forest_config.num_trees;
  }
  result.converged = AllTreesMatchTrigger(result.forest, dataset, trigger_indices);
  result.final_trigger_weight = trigger_weight;
  if (!result.converged) WarnNotConverged(config);
  return result;
}

}  // namespace treewm::core
