// Hyper-parameter grid search with stratified k-fold cross-validation.
//
// Algorithm 1 line 12: H <- GridSearch(D_train, m). The search scores
// (max_depth, max_leaf_nodes) combinations by CV accuracy of an m-tree
// forest and returns the best tree config.

#ifndef TREEWM_FOREST_GRID_SEARCH_H_
#define TREEWM_FOREST_GRID_SEARCH_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "forest/random_forest.h"

namespace treewm::forest {

/// Search space and protocol for GridSearch.
struct GridSearchConfig {
  /// Candidate max_depth values (-1 = unlimited).
  std::vector<int> max_depth_grid = {6, 10, 14, -1};
  /// Candidate max_leaf_nodes values (-1 = unlimited).
  std::vector<int> max_leaf_nodes_grid = {-1};
  /// Stratified CV folds (>= 2).
  size_t num_folds = 3;
  /// Template for fields not being searched (feature fraction, trainer).
  /// Its pool runs the whole search: each fold's column sort, then every
  /// (point × fold × tree) fit in one fan-out, where the fit that completes
  /// a fold forest scores it (nullptr = serial).
  ForestConfig forest_template;
  /// Seed for fold assignment and forest training.
  uint64_t seed = 7;
};

/// One evaluated grid point.
struct GridPoint {
  tree::TreeConfig config;
  double cv_accuracy = 0.0;
};

/// Outcome of a grid search.
struct GridSearchOutcome {
  tree::TreeConfig best;       ///< highest CV accuracy (ties: first in grid order)
  double best_accuracy = 0.0;  ///< its CV accuracy
  std::vector<GridPoint> evaluated;
};

/// Stratified k-fold assignment: fold id per row, each fold class-balanced.
/// InvalidArgument when the larger class has fewer than `num_folds` rows,
/// which is exactly when some fold would be empty.
[[nodiscard]] Result<std::vector<size_t>> StratifiedFolds(const data::Dataset& dataset,
                                            size_t num_folds, Rng* rng);

/// Runs the search for an ensemble of `num_trees` trees. Each grid point
/// draws its forest seed from `config.seed` in grid order; then every
/// point's fold forests are fitted and scored in one fan-out. Fold
/// accuracies are summed in fold order, so the accuracy table is
/// bit-identical on every pool; on failure the error is the first failing
/// (point, fold)'s in grid order.
[[nodiscard]] Result<GridSearchOutcome> GridSearch(const data::Dataset& dataset, size_t num_trees,
                                     const GridSearchConfig& config);

}  // namespace treewm::forest

#endif  // TREEWM_FOREST_GRID_SEARCH_H_
