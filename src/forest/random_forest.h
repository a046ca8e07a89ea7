// Random forest without bootstrap.
//
// Matches the model class of the paper (§3.2): every tree trains on the full
// training set (no bagging) restricted to a random subset of the features;
// the ensemble prediction aggregates individual votes, and — crucially for
// black-box watermark verification — the per-tree prediction sequence is
// exposed (the role R's `predict.all` plays in the paper).

#ifndef TREEWM_FOREST_RANDOM_FOREST_H_
#define TREEWM_FOREST_RANDOM_FOREST_H_

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "predict/flat_cache.h"
#include "predict/vote_matrix.h"
#include "tree/decision_tree.h"

namespace treewm::forest {

/// Forest-level hyper-parameters (contains the per-tree H of Algorithm 1).
struct ForestConfig {
  /// Number of trees m.
  size_t num_trees = 50;
  /// Per-tree induction hyper-parameters.
  tree::TreeConfig tree;
  /// Fraction of features each tree may use; 0 means sqrt(d)/d (the common
  /// random-forest default). Each tree draws its own subset.
  double feature_fraction = 0.0;
  /// Seed driving feature-subset draws (one fork per tree; training is
  /// deterministic regardless of thread scheduling).
  uint64_t seed = 1;
  /// The pool the fit fans out on: the column sort, one tree per task, and
  /// everything nested under this config (grid search, the trigger search).
  /// nullptr is serial. The caller owns the pool and keeps it alive while
  /// the config is in use.
  ThreadPool* pool = &ThreadPool::Global();
  /// Fit member trees with the retained naive trainer
  /// (DecisionTree::FitReference) instead of the sort-once engine. Slow;
  /// exists so the bit-identical equivalence contract is testable end to
  /// end through forest training (and as the bench baseline).
  bool use_reference_trainer = false;

  [[nodiscard]] Status Validate() const;
};

/// The column sort `config`'s trees train on, fanned out on config.pool;
/// null when config.use_reference_trainer (the reference re-sorts per
/// node). Built once per dataset and shared immutably by every tree,
/// weight-boosting round and grid point that trains on those rows.
std::shared_ptr<const tree::SortedColumns> BuildTrainingColumns(
    const data::Dataset& dataset, const ForestConfig& config);

/// Tree t of one ForestConfig on one dataset, for any per-row weights.
///
/// Holds everything that fixes tree t except the weights: its feature
/// subset, pre-drawn from config.seed, and the shared column sort. Trees
/// train without bagging, so tree t's fit is a pure function of the
/// weights. A trainer fits one tree at a time on the calling thread, so one
/// fan-out can mix fits of many trainers: RandomForest::Fit runs one
/// trainer's trees through FitTrees, TrainWithTrigger single trees of one
/// or more searches at many trigger weights, and GridSearch every
/// (point, fold) trainer's trees at once.
class ForestTrainer {
 public:
  /// Validates `config`, draws every tree's feature subset and adopts the
  /// prebuilt `sorted` or builds it with BuildTrainingColumns. A `sorted`
  /// built for another dataset shape is an InvalidArgument. These are all
  /// the checks a fit makes, so Fit with empty or row-sized weights cannot
  /// fail. `dataset` must outlive the trainer.
  [[nodiscard]] static Result<ForestTrainer> Create(
      const data::Dataset& dataset, const ForestConfig& config,
      std::shared_ptr<const tree::SortedColumns> sorted = nullptr);

  /// Tree `tree` on per-row `weights` (empty = all ones), fitted on the
  /// calling thread.
  [[nodiscard]] Result<tree::DecisionTree> Fit(size_t tree,
                                               const std::vector<double>& weights) const;

  /// Number of trees m.
  size_t num_trees() const { return subsets_.size(); }

 private:
  ForestTrainer(const data::Dataset& dataset, const ForestConfig& config);

  const data::Dataset* dataset_;
  ForestConfig config_;
  std::vector<std::vector<int>> subsets_;
  std::shared_ptr<const tree::SortedColumns> sorted_;
};

/// Runs fit(i) for every i in [0, count) in one ParallelFor on `pool`;
/// element i of the result is fit(i)'s tree. Each fit writes only its own
/// slot, so the result is the same at every width; on failure the error is
/// the first failing index's.
[[nodiscard]] Result<std::vector<tree::DecisionTree>> FitTrees(
    ThreadPool* pool, size_t count,
    const std::function<Result<tree::DecisionTree>(size_t)>& fit);

/// An immutable trained forest.
class RandomForest {
 public:
  /// Trains `config.num_trees` trees on `dataset` with shared per-row
  /// `weights` (empty = all ones): one FitTrees over the ForestTrainer's
  /// trees.
  ///
  /// Training runs on the sort-once column engine: each feature column of
  /// `dataset` is sorted once and the immutable SortedColumns is shared
  /// across config.pool's workers (like FlatEnsemble images on the
  /// inference side); each tree copies only its feature subset's columns.
  /// Pass a prebuilt `sorted` to amortize the sort across many fits on the
  /// same rows (weight-boosting rounds, grid-search points on one fold);
  /// nullptr builds it internally.
  [[nodiscard]] static Result<RandomForest> Fit(
      const data::Dataset& dataset, const std::vector<double>& weights,
      const ForestConfig& config,
      std::shared_ptr<const tree::SortedColumns> sorted = nullptr);

  /// Assembles a forest from pre-trained trees (Algorithm 1's interleave
  /// step). All trees must agree on num_features.
  [[nodiscard]] static Result<RandomForest> FromTrees(std::vector<tree::DecisionTree> trees);

  /// Majority-vote label for one instance; ties predict +1 (documented,
  /// deterministic).
  int Predict(std::span<const float> row) const;

  /// Per-tree prediction sequence for one instance (the `predict.all`
  /// behaviour watermark verification relies on).
  std::vector<int> PredictAll(std::span<const float> row) const;

  /// Per-tree predictions for every row as one flat row-major vote matrix —
  /// the hot-path shape hot consumers (verification scoring, witness
  /// validation) read in place. The batch calls here run on the process
  /// pool; to pick a pool, use predict::BatchPredictor.
  predict::VoteMatrix PredictAllVotes(const data::Dataset& dataset) const;

  /// Majority-vote accuracy on `dataset`.
  double Accuracy(const data::Dataset& dataset) const;

  /// Number of trees m.
  size_t num_trees() const { return trees_.size(); }

  /// Feature dimensionality d.
  size_t num_features() const { return num_features_; }

  const std::vector<tree::DecisionTree>& trees() const { return trees_; }

  /// Per-tree depths / leaf counts — the structural statistics the detection
  /// attack (§4.2.1) inspects.
  std::vector<double> TreeDepths() const;
  std::vector<double> TreeLeafCounts() const;

  /// Serialization.
  JsonValue ToJson() const;
  [[nodiscard]] static Result<RandomForest> FromJson(const JsonValue& json);

 private:
  RandomForest() = default;

  /// Packed inference image, built lazily on the first batch call and shared
  /// across calls (and copies) — trees_ is immutable after construction, so
  /// the cache can never go stale.
  std::shared_ptr<const predict::FlatEnsemble> Flat() const;

  std::vector<tree::DecisionTree> trees_;
  size_t num_features_ = 0;
  mutable predict::FlatCacheSlot flat_cache_;
};

}  // namespace treewm::forest

#endif  // TREEWM_FOREST_RANDOM_FOREST_H_
