#include "forest/grid_search.h"

#include <algorithm>
#include <atomic>

#include "common/string_util.h"
#include "predict/batch_predictor.h"

namespace treewm::forest {

Result<std::vector<size_t>> StratifiedFolds(const data::Dataset& dataset,
                                            size_t num_folds, Rng* rng) {
  if (num_folds < 2) return Status::InvalidArgument("num_folds must be >= 2");
  std::vector<size_t> members[2];
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    members[dataset.Label(i) == data::kPositive ? 0 : 1].push_back(i);
  }
  // Each class is dealt from fold 0, so the folds are all non-empty exactly
  // when the larger class reaches every fold.
  const size_t larger = std::max(members[0].size(), members[1].size());
  if (larger < num_folds) {
    return Status::InvalidArgument(StrFormat(
        "cannot make %zu non-empty folds: the larger class has %zu rows", num_folds,
        larger));
  }
  std::vector<size_t> fold_of(dataset.num_rows());
  // Deal each class round-robin into folds after a shuffle.
  for (std::vector<size_t>& class_members : members) {
    rng->Shuffle(&class_members);
    for (size_t i = 0; i < class_members.size(); ++i) {
      fold_of[class_members[i]] = i % num_folds;
    }
  }
  return fold_of;
}

Result<GridSearchOutcome> GridSearch(const data::Dataset& dataset, size_t num_trees,
                                     const GridSearchConfig& config) {
  if (config.max_depth_grid.empty() || config.max_leaf_nodes_grid.empty()) {
    return Status::InvalidArgument("grid must be non-empty");
  }
  Rng rng(config.seed);
  TREEWM_ASSIGN_OR_RETURN(std::vector<size_t> fold_of,
                          StratifiedFolds(dataset, config.num_folds, &rng));
  const size_t num_folds = config.num_folds;

  // Materialize per-fold train/validation datasets once, plus one column
  // sort per training fold — shared by every grid point (and every tree)
  // that fits on that fold. Grid points differ only in depth and leaf
  // limits, which the sort does not depend on. Each sort fans its features
  // out on the pool.
  std::vector<data::Dataset> fold_train;
  std::vector<data::Dataset> fold_valid;
  std::vector<std::shared_ptr<const tree::SortedColumns>> fold_sorted;
  for (size_t fold = 0; fold < num_folds; ++fold) {
    std::vector<size_t> train_idx;
    std::vector<size_t> valid_idx;
    for (size_t i = 0; i < dataset.num_rows(); ++i) {
      (fold_of[i] == fold ? valid_idx : train_idx).push_back(i);
    }
    fold_train.push_back(dataset.Subset(train_idx));
    fold_valid.push_back(dataset.Subset(valid_idx));
    fold_sorted.push_back(BuildTrainingColumns(fold_train.back(), config.forest_template));
  }

  // One trainer per (point, fold) unit, unit = point · num_folds + fold.
  // Points draw their forest seeds in grid order. Create makes every check
  // a fit makes, so the first error in unit order is the first failing
  // unit's.
  std::vector<GridPoint> points;
  std::vector<ForestTrainer> units;
  for (int max_depth : config.max_depth_grid) {
    for (int max_leaf_nodes : config.max_leaf_nodes_grid) {
      ForestConfig forest_config = config.forest_template;
      forest_config.num_trees = num_trees;
      forest_config.tree.max_depth = max_depth;
      forest_config.tree.max_leaf_nodes = max_leaf_nodes;
      forest_config.seed = rng.NextUint64();
      points.push_back({forest_config.tree});
      for (size_t fold = 0; fold < num_folds; ++fold) {
        TREEWM_ASSIGN_OR_RETURN(
            ForestTrainer trainer,
            ForestTrainer::Create(fold_train[fold], forest_config, fold_sorted[fold]));
        units.push_back(std::move(trainer));
      }
    }
  }

  // Every (point × fold × tree) fit in one ParallelFor. The fit that
  // completes a unit scores the unit's forest on its validation fold and
  // frees the trees, so only the units in flight hold trees.
  const size_t count = units.size() * num_trees;
  const std::vector<double> unit_weights;  // empty = all ones
  std::vector<Result<tree::DecisionTree>> fitted(
      count, Result<tree::DecisionTree>(Status::Internal("tree not fitted")));
  std::vector<std::atomic<size_t>> unfitted(units.size());
  for (std::atomic<size_t>& left : unfitted) left.store(num_trees, std::memory_order_relaxed);
  std::vector<Status> unit_status(units.size());
  std::vector<double> unit_accuracy(units.size());
  ParallelFor(config.forest_template.pool, count, [&](size_t i) {
    const size_t u = i / num_trees;
    fitted[i] = units[u].Fit(i % num_trees, unit_weights);
    // acq_rel: the unit's last fit sees the slots the other fits wrote.
    if (unfitted[u].fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    std::vector<tree::DecisionTree> forest;
    forest.reserve(num_trees);
    for (size_t j = u * num_trees; j < (u + 1) * num_trees; ++j) {
      if (!fitted[j].ok()) {
        unit_status[u] = fitted[j].status();
        return;
      }
      forest.push_back(std::move(fitted[j]).MoveValue());
    }
    unit_accuracy[u] =
        predict::BatchPredictor(predict::FlatEnsemble::FromClassificationTrees(forest),
                                /*pool=*/nullptr)
            .LabelAccuracy(fold_valid[u % num_folds]);
  });
  for (const Status& status : unit_status) TREEWM_RETURN_IF_ERROR(status);

  // Fold accuracies summed in fold order, points compared in grid order.
  GridSearchOutcome outcome;
  for (size_t p = 0; p < points.size(); ++p) {
    double accuracy_sum = 0.0;
    for (size_t fold = 0; fold < num_folds; ++fold) {
      accuracy_sum += unit_accuracy[p * num_folds + fold];
    }
    GridPoint& point = points[p];
    point.cv_accuracy = accuracy_sum / static_cast<double>(num_folds);
    if (outcome.evaluated.empty() || point.cv_accuracy > outcome.best_accuracy) {
      outcome.best = point.config;
      outcome.best_accuracy = point.cv_accuracy;
    }
    outcome.evaluated.push_back(point);
  }
  return outcome;
}

}  // namespace treewm::forest
