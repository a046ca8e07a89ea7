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
  /// Template for fields not being searched (criterion, min_samples_*).
  /// Its pool runs the whole search: the fold sorts or binning, each fold
  /// forest's trees and its scoring (nullptr = serial).
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
[[nodiscard]] Result<std::vector<size_t>> StratifiedFolds(const data::Dataset& dataset,
                                            size_t num_folds, Rng* rng);

/// Runs the search for an ensemble of `num_trees` trees. Points run in grid
/// order, each drawing its forest seed from `config.seed` in turn, so the
/// accuracy table is bit-identical on every pool.
[[nodiscard]] Result<GridSearchOutcome> GridSearch(const data::Dataset& dataset, size_t num_trees,
                                     const GridSearchConfig& config);

}  // namespace treewm::forest

#endif  // TREEWM_FOREST_GRID_SEARCH_H_
