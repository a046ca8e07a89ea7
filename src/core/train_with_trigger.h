// TrainWithTrigger (Algorithm 1, lines 1-9): sample-weight boosting until
// every tree shows the required behaviour on the trigger set.
//
// The paper's loop retrains the whole forest, adding 1 to the weight of every
// trigger instance whenever some tree still deviates, and has no termination
// bound. Round r therefore trains with trigger weight 1 + r (every other row
// keeps weight 1). We bound the loop with `max_boost_rounds` and report
// convergence instead of hanging; non-convergence is surfaced to the caller.
//
// TrainWithTrigger finds the round at which that linear loop stops without
// refitting the whole forest every round. It relies on one invariant: trees
// train without bagging, on feature subsets pre-drawn from the forest seed
// (forest::ForestTrainer), so each tree's fit is a pure function of the
// round's weights. A round where one tree fails is then ruled out by fitting
// that tree alone. Anything that adds per-round randomness to a tree's fit
// (bootstrap samples, per-round reseeding) breaks this and must revisit the
// search; TrainWithTriggerReference keeps the linear loop as the spec.
//
// The search runs in waves. Each wave is one ParallelFor of at most
// P = ParallelWidth(pool) single-tree fits. Trees are kept in fail-first
// order, and a search alternates between two phases:
//   * lead: the lead tree (the one that failed last) is fitted alone at the
//     next untested rounds; the first round where it matches is confirmed;
//   * confirm round r: the other trees are fitted at r in fail-first order.
//     The first one that fails becomes the lead from r + 1; if none fails,
//     r is the answer.
// If no round up to max_boost_rounds matches, every tree is fitted at the
// cap, as the linear loop's last forest. TrainWithTriggerJointly runs
// several searches (Algorithm 1's T0 and T1) in the same waves, dealing each
// wave's P slots round-robin, one at a time, to the searches that still
// need fits.

#ifndef TREEWM_CORE_TRAIN_WITH_TRIGGER_H_
#define TREEWM_CORE_TRAIN_WITH_TRIGGER_H_

#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "forest/random_forest.h"

namespace treewm::core {

/// Knobs of the boosting loop. The weight step is the paper's +1: round r
/// trains with every trigger weight at exactly 1 + r.
struct TriggerTrainingConfig {
  /// Forest configuration (the adjusted H plus m); its pool runs every fit.
  forest::ForestConfig forest;
  /// Upper bound on retraining rounds (paper: unbounded; the linear +1
  /// weight growth can legitimately need ~100 rounds on noisy data before
  /// trigger weights dominate every tree's split decisions).
  size_t max_boost_rounds = 150;
};

/// Outcome of TrainWithTrigger.
struct TriggerTrainingResult {
  forest::RandomForest forest;
  /// Rounds actually used (0 = first training already satisfied the trigger).
  size_t boost_rounds = 0;
  /// True when every tree matches the trigger behaviour.
  bool converged = false;
  /// Final per-trigger-instance weight (parallel to trigger_indices).
  double final_trigger_weight = 1.0;
  /// Trees actually fitted, counted separately from rounds: the linear loop
  /// fits (boost_rounds + 1) · m. The search's count also depends on the
  /// pool's width and on the searches it shared waves with; the model does
  /// not. At one width and one set of searches it repeats exactly.
  size_t tree_fits = 0;
};

/// Trains a forest such that every tree classifies every trigger row of
/// `dataset` as labeled *in the dataset* (callers encode the desired
/// behaviour by flipping labels beforehand, per Algorithm 1 line 17).
/// `trigger_indices` index rows of `dataset`.
///
/// Returns exactly what TrainWithTriggerReference returns (same trees,
/// rounds, convergence and final weight) from an exact search for the first
/// round at which every tree matches (see the file comment). This is
/// TrainWithTriggerJointly with one search.
[[nodiscard]] Result<TriggerTrainingResult> TrainWithTrigger(
    const data::Dataset& dataset, const std::vector<size_t>& trigger_indices,
    const TriggerTrainingConfig& config);

/// One search of TrainWithTriggerJointly: the arguments of one
/// TrainWithTrigger call. The referenced dataset and trigger rows must
/// outlive the call.
struct TriggerSearch {
  const data::Dataset& dataset;
  const std::vector<size_t>& trigger_indices;
  TriggerTrainingConfig config;
};

/// Runs every search in the same waves on their one pool (searches with
/// different pools are an InvalidArgument). Element i is exactly what
/// TrainWithTriggerReference returns for searches[i]. A non-null `sorted`
/// is the column sort every search trains on: searches may differ in
/// labels, which never enter the sort, but not in feature values. Null
/// builds one sort per search.
[[nodiscard]] Result<std::vector<TriggerTrainingResult>> TrainWithTriggerJointly(
    std::span<const TriggerSearch> searches,
    std::shared_ptr<const tree::SortedColumns> sorted = nullptr);

/// The linear trigger loop of Algorithm 1, kept as the executable spec of
/// TrainWithTrigger: retrains the whole forest after every weight step.
[[nodiscard]] Result<TriggerTrainingResult> TrainWithTriggerReference(
    const data::Dataset& dataset, const std::vector<size_t>& trigger_indices,
    const TriggerTrainingConfig& config);

/// True iff every tree of `forest` predicts the dataset label on every
/// trigger row.
bool AllTreesMatchTrigger(const forest::RandomForest& forest,
                          const data::Dataset& dataset,
                          const std::vector<size_t>& trigger_indices);

}  // namespace treewm::core

#endif  // TREEWM_CORE_TRAIN_WITH_TRIGGER_H_
