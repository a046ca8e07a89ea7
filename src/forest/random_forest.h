// Random forest without bootstrap.
//
// Matches the model class of the paper (§3.2): every tree trains on the full
// training set (no bagging) restricted to a random subset of the features;
// the ensemble prediction aggregates individual votes, and — crucially for
// black-box watermark verification — the per-tree prediction sequence is
// exposed (the role R's `predict.all` plays in the paper).

#ifndef TREEWM_FOREST_RANDOM_FOREST_H_
#define TREEWM_FOREST_RANDOM_FOREST_H_

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
  /// The pool the fit fans out on: the column sort or binning pass, one
  /// tree per task, and everything nested under this config (grid search,
  /// the trigger search). nullptr is serial. The caller owns the pool and
  /// keeps it alive while the config is in use.
  ThreadPool* pool = &ThreadPool::Global();
  /// Fit member trees with the retained naive trainer
  /// (DecisionTree::FitReference) instead of the sort-once engine. Slow;
  /// exists so the bit-identical equivalence contract is testable end to
  /// end through forest training (and as the bench baseline).
  bool use_reference_trainer = false;

  [[nodiscard]] Status Validate() const;
};

/// The per-dataset substrate a trainer mode runs on: sorted columns for the
/// exact engine, binned columns for the histogram engine, neither for the
/// reference trainer. Built once per dataset and shared immutably by every
/// tree, weight-boosting round and grid point that trains on those rows.
struct TrainingColumns {
  std::shared_ptr<const tree::SortedColumns> sorted;
  std::shared_ptr<const tree::BinnedColumns> binned;
};

/// Builds the substrate `config`'s trainer mode runs on, fanned out on
/// config.pool (histogram binning uses config.tree.max_bins).
[[nodiscard]] Result<TrainingColumns> BuildTrainingColumns(
    const data::Dataset& dataset, const ForestConfig& config);

/// Tree t of one ForestConfig on one dataset, for any per-row weights.
///
/// Holds everything that fixes tree t except the weights: its feature
/// subset, pre-drawn from config.seed, the shared training substrate, and
/// config.pool, which its fits fan out on. Trees train without bagging, so
/// tree t's fit is a pure function of the weights. RandomForest::Fit is one
/// FitTrees over every tree; TrainWithTrigger fits single trees at many
/// trigger weights through the same unit.
class ForestTrainer {
 public:
  /// Validates `config`, draws every tree's feature subset and adopts the
  /// prebuilt `sorted` / `binned` substrate or builds the one the trainer
  /// mode needs. Mixing the substrates, or passing one built for another
  /// dataset shape, is an InvalidArgument. `dataset` must outlive the
  /// trainer.
  [[nodiscard]] static Result<ForestTrainer> Create(
      const data::Dataset& dataset, const ForestConfig& config,
      std::shared_ptr<const tree::SortedColumns> sorted = nullptr,
      std::shared_ptr<const tree::BinnedColumns> binned = nullptr);

  /// One fit: tree `tree` on per-row `weights` (empty = all ones).
  struct Job {
    size_t tree;
    const std::vector<double>* weights;
  };

  /// Fits every job in one ParallelFor; element i is jobs[i]'s tree. Each
  /// job writes only its own slot, so the result is the same at every
  /// thread count; on failure the error is the first failing job's.
  [[nodiscard]] Result<std::vector<tree::DecisionTree>> FitTrees(
      std::span<const Job> jobs) const;

  /// How many fits FitTrees runs at once: ParallelWidth(config.pool).
  size_t Concurrency() const;

  /// Number of trees m.
  size_t num_trees() const { return subsets_.size(); }

 private:
  ForestTrainer(const data::Dataset& dataset, const ForestConfig& config);

  const data::Dataset* dataset_;
  ForestConfig config_;
  std::vector<std::vector<int>> subsets_;
  TrainingColumns columns_;
};

/// An immutable trained forest.
class RandomForest {
 public:
  /// Trains `config.num_trees` trees on `dataset` with shared per-row
  /// `weights` (empty = all ones): one ForestTrainer::FitTrees over every
  /// tree.
  ///
  /// Training runs on the sort-once column engine: each feature column of
  /// `dataset` is sorted once and the immutable SortedColumns is shared
  /// across config.pool's workers (like FlatEnsemble images on the
  /// inference side); each tree copies only its feature subset's columns.
  /// Pass a prebuilt `sorted` to amortize the sort across many fits on the
  /// same rows (weight-boosting rounds, grid-search points on one fold);
  /// nullptr builds it internally.
  ///
  /// With config.tree.trainer_mode == kHistogram the approximate
  /// binned-gradient engine runs instead, sharing one immutable
  /// BinnedColumns across workers (pass prebuilt `binned` or nullptr to bin
  /// internally with config.tree.max_bins). Mixing the substrates — or
  /// passing `binned` in exact mode — is an InvalidArgument.
  [[nodiscard]] static Result<RandomForest> Fit(
      const data::Dataset& dataset, const std::vector<double>& weights,
      const ForestConfig& config,
      std::shared_ptr<const tree::SortedColumns> sorted = nullptr,
      std::shared_ptr<const tree::BinnedColumns> binned = nullptr);

  /// Assembles a forest from pre-trained trees (Algorithm 1's interleave
  /// step). All trees must agree on num_features.
  [[nodiscard]] static Result<RandomForest> FromTrees(std::vector<tree::DecisionTree> trees);

  /// Majority-vote label for one instance; ties predict +1 (documented,
  /// deterministic).
  int Predict(std::span<const float> row) const;

  /// Per-tree prediction sequence for one instance (the `predict.all`
  /// behaviour watermark verification relies on).
  std::vector<int> PredictAll(std::span<const float> row) const;

  /// Majority-vote labels for every row. The batch calls here run on the
  /// process pool; to pick a pool, use predict::BatchPredictor.
  std::vector<int> PredictBatch(const data::Dataset& dataset) const;

  /// Per-tree predictions for every row as one flat row-major vote matrix —
  /// the hot-path shape hot consumers (verification scoring, witness
  /// validation) read in place.
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
