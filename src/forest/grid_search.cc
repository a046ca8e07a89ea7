#include "forest/grid_search.h"

#include <algorithm>
#include <memory>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace treewm::forest {

Result<std::vector<size_t>> StratifiedFolds(const data::Dataset& dataset,
                                            size_t num_folds, Rng* rng) {
  if (num_folds < 2) return Status::InvalidArgument("num_folds must be >= 2");
  if (dataset.num_rows() < num_folds) {
    return Status::InvalidArgument(
        StrFormat("cannot make %zu folds from %zu rows", num_folds,
                  dataset.num_rows()));
  }
  std::vector<size_t> fold_of(dataset.num_rows());
  // Deal each class round-robin into folds after a shuffle.
  for (int label : {data::kPositive, data::kNegative}) {
    std::vector<size_t> members;
    for (size_t i = 0; i < dataset.num_rows(); ++i) {
      if (dataset.Label(i) == label) members.push_back(i);
    }
    rng->Shuffle(&members);
    for (size_t i = 0; i < members.size(); ++i) fold_of[members[i]] = i % num_folds;
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

  ThreadPool* pool = nullptr;
  std::unique_ptr<ThreadPool> local_pool;
  if (config.num_threads == 0) {
    pool = &ThreadPool::Global();
  } else if (config.num_threads > 1) {
    local_pool = std::make_unique<ThreadPool>(config.num_threads);
    pool = local_pool.get();
  }

  // Materialize per-fold train/validation datasets once, plus the training
  // substrate of the template's trainer mode per training fold — shared by
  // every grid point (and every tree) that fits on that fold. Grid points
  // differ only in depth and leaf limits, which no substrate depends on.
  std::vector<data::Dataset> fold_train;
  std::vector<data::Dataset> fold_valid;
  std::vector<TrainingColumns> fold_columns;
  for (size_t fold = 0; fold < config.num_folds; ++fold) {
    std::vector<size_t> train_idx;
    std::vector<size_t> valid_idx;
    for (size_t i = 0; i < dataset.num_rows(); ++i) {
      (fold_of[i] == fold ? valid_idx : train_idx).push_back(i);
    }
    fold_train.push_back(dataset.Subset(train_idx));
    fold_valid.push_back(dataset.Subset(valid_idx));
    TREEWM_ASSIGN_OR_RETURN(
        TrainingColumns columns,
        BuildTrainingColumns(fold_train.back(), config.forest_template, pool));
    fold_columns.push_back(std::move(columns));
  }

  // Pre-draw every grid point's forest seed in grid order (the same RNG
  // consumption sequence the serial loop used), then fan the points across
  // the pool with results written to fixed slots: the accuracy table — and
  // the argmax below — are bit-identical at every thread count.
  std::vector<ForestConfig> point_configs;
  for (int max_depth : config.max_depth_grid) {
    for (int max_leaf_nodes : config.max_leaf_nodes_grid) {
      ForestConfig forest_config = config.forest_template;
      forest_config.num_trees = num_trees;
      forest_config.tree.max_depth = max_depth;
      forest_config.tree.max_leaf_nodes = max_leaf_nodes;
      forest_config.seed = rng.NextUint64();
      TREEWM_RETURN_IF_ERROR(forest_config.Validate());
      point_configs.push_back(forest_config);
    }
  }

  GridSearchOutcome outcome;
  outcome.evaluated.resize(point_configs.size());
  std::vector<Status> point_status(point_configs.size());
  ParallelFor(pool, point_configs.size(), [&](size_t p) {
    double accuracy_sum = 0.0;
    for (size_t fold = 0; fold < config.num_folds; ++fold) {
      Result<RandomForest> forest =
          RandomForest::Fit(fold_train[fold], /*weights=*/{}, point_configs[p],
                            fold_columns[fold].sorted, fold_columns[fold].binned);
      if (!forest.ok()) {
        point_status[p] = forest.status();
        return;
      }
      // Fold evaluation runs through the batched flat-ensemble engine
      // (Accuracy routes to predict::BatchPredictor).
      accuracy_sum += forest.value().Accuracy(fold_valid[fold]);
    }
    outcome.evaluated[p].config = point_configs[p].tree;
    outcome.evaluated[p].cv_accuracy =
        accuracy_sum / static_cast<double>(config.num_folds);
  });
  // Deterministic error selection: first failing point in grid order, not
  // first observed by a worker.
  for (const Status& st : point_status) {
    if (!st.ok()) return st;
  }

  for (size_t p = 0; p < outcome.evaluated.size(); ++p) {
    const GridPoint& point = outcome.evaluated[p];
    if (p == 0 || point.cv_accuracy > outcome.best_accuracy) {
      outcome.best = point.config;
      outcome.best_accuracy = point.cv_accuracy;
    }
  }
  return outcome;
}

}  // namespace treewm::forest
