// TrainWithTrigger (Algorithm 1, lines 1-9): sample-weight boosting until
// every tree shows the required behaviour on the trigger set.
//
// The paper's loop retrains the whole forest, adding 1 to the weight of every
// trigger instance whenever some tree still deviates, and has no termination
// bound. We bound it with `max_boost_rounds` and report convergence instead
// of hanging; non-convergence is surfaced to the caller.
//
// TrainWithTrigger finds the round at which that linear loop stops without
// refitting the whole forest every round. It relies on one invariant: trees
// train without bagging, on feature subsets pre-drawn from the forest seed
// (forest::ForestTrainer), so each tree's fit is a pure function of the
// round's weights. A round where one tree fails is then ruled out by fitting
// that tree alone. Anything that adds per-round randomness to a tree's fit
// (bootstrap samples, per-round reseeding) breaks this and must revisit the
// search; TrainWithTriggerReference keeps the linear loop as the spec.

#ifndef TREEWM_CORE_TRAIN_WITH_TRIGGER_H_
#define TREEWM_CORE_TRAIN_WITH_TRIGGER_H_

#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "forest/random_forest.h"

namespace treewm::core {

/// Knobs of the boosting loop.
struct TriggerTrainingConfig {
  /// Forest configuration (the adjusted H plus m); its pool runs every fit.
  forest::ForestConfig forest;
  /// Upper bound on retraining rounds (paper: unbounded; the linear +1
  /// weight growth can legitimately need ~100 rounds on noisy data before
  /// trigger weights dominate every tree's split decisions).
  size_t max_boost_rounds = 150;
  /// Additive weight bump per round for each trigger instance (paper: 1).
  double weight_increment = 1.0;
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
  /// fits (boost_rounds + 1) · m. The search's count also depends on how
  /// many fits run at once; the model does not.
  size_t tree_fits = 0;
};

/// Trains a forest such that every tree classifies every trigger row of
/// `dataset` as labeled *in the dataset* (callers encode the desired
/// behaviour by flipping labels beforehand, per Algorithm 1 line 17).
/// `trigger_indices` index rows of `dataset`.
///
/// Returns exactly what TrainWithTriggerReference returns (same trees,
/// rounds, convergence and final weight) from an exact search for the first
/// round at which every tree matches. Trees are kept in fail-first order.
/// The lead tree is fitted alone at the next P rounds in one ParallelFor,
/// where P is the number of fits that run at once. At the first of those
/// rounds where it matches, the other m − 1 trees are fitted there; if one
/// fails, it becomes the lead and the search resumes a round later.
[[nodiscard]] Result<TriggerTrainingResult> TrainWithTrigger(
    const data::Dataset& dataset, const std::vector<size_t>& trigger_indices,
    const TriggerTrainingConfig& config);

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
