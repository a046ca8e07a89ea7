// Watermark creation — the W atermark function of Algorithm 1.
//
// Pipeline: grid-search hyper-parameters H for an m-tree forest, sample a
// trigger set from the training data, adjust H so the misclassifying
// sub-ensemble cannot be told apart structurally (Adjust, §3.2), train T0
// (trees that must classify the trigger correctly) and T1 (trees that must
// misclassify it, trained on flipped trigger labels), and interleave their
// trees according to the signature bits.

#ifndef TREEWM_CORE_WATERMARK_H_
#define TREEWM_CORE_WATERMARK_H_

#include <cstdint>

#include "core/signature.h"
#include "core/train_with_trigger.h"
#include "data/dataset.h"
#include "forest/grid_search.h"
#include "forest/random_forest.h"

namespace treewm::core {

/// Configuration of the watermark creation pipeline.
struct WatermarkConfig {
  /// Trigger set size k as a fraction of |D_train| (paper sweeps 1%..4%;
  /// security evaluation fixes 2%). The one way to say k: valid in (0, 1],
  /// k = round(fraction · |D_train|), floored at 1.
  double trigger_fraction = 0.02;
  /// Grid search protocol (Algorithm 1 line 12). Its forest_template is
  /// replaced by trigger_training.forest.
  forest::GridSearchConfig grid;
  /// Boost-loop knobs shared by the T0 and T1 trainings. The forest's pool
  /// runs all of Algorithm 1: grid search, Adjust, T0 and T1.
  TriggerTrainingConfig trigger_training;
  /// Apply the Adjust(H) heuristic (§3.2). Off = ablation mode: T1 trees are
  /// free to overfit and may leak the signature structurally.
  bool adjust_hyperparameters = true;
  /// Skip grid search and use `trigger_training.forest.tree` as H directly
  /// (useful for tests and for callers that tuned H themselves).
  bool skip_grid_search = false;
  /// Master seed (trigger sampling, grid search, training).
  uint64_t seed = 11;
};

/// Everything W atermark returns (the pair ⟨T, D_trigger⟩ plus provenance).
struct WatermarkedModel {
  /// The watermarked ensemble T with trees interleaved by signature bit.
  forest::RandomForest model;
  /// The owner's signature σ.
  Signature signature;
  /// The trigger set with its *original* (correct) labels.
  data::Dataset trigger_set;
  /// Row indices of the trigger instances inside the training set.
  std::vector<size_t> trigger_indices;
  /// H found by grid search (before adjustment).
  tree::TreeConfig tuned_config;
  /// H actually used for T0/T1 (after Adjust, when enabled).
  tree::TreeConfig adjusted_config;
  /// Convergence provenance of the two boosting loops.
  bool t0_converged = true;
  bool t1_converged = true;
  size_t t0_boost_rounds = 0;
  size_t t1_boost_rounds = 0;
};

/// Watermark creation driver.
class Watermarker {
 public:
  explicit Watermarker(WatermarkConfig config) : config_(std::move(config)) {}

  /// Runs Algorithm 1 on `train` with signature `sigma`. The ensemble size m
  /// equals sigma.length().
  [[nodiscard]] Result<WatermarkedModel> CreateWatermark(const data::Dataset& train,
                                           const Signature& sigma) const;

  /// The Adjust(H) heuristic exposed for tests/ablation: trains a standard
  /// ensemble with `tuned` and lowers depth/leaf limits to mean − stddev of
  /// the observed per-tree statistics. `trigger_size` floors the limits so a
  /// tree can still isolate every trigger instance — §3.2 requires the
  /// shrunken trees to keep "overfitting the expected wrong output on the
  /// trigger set", which is impossible below ~one leaf per trigger point.
  [[nodiscard]] static Result<tree::TreeConfig> AdjustHyperparameters(
      const data::Dataset& train, const tree::TreeConfig& tuned,
      const forest::ForestConfig& forest_template, size_t num_trees, uint64_t seed,
      size_t trigger_size = 0);

 private:
  WatermarkConfig config_;
};

}  // namespace treewm::core

#endif  // TREEWM_CORE_WATERMARK_H_
