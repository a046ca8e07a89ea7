#include "core/watermark.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "data/sampling.h"

namespace treewm::core {

Result<tree::TreeConfig> Watermarker::AdjustHyperparameters(
    const data::Dataset& train, const tree::TreeConfig& tuned,
    const forest::ForestConfig& forest_template, size_t num_trees, uint64_t seed,
    size_t trigger_size) {
  // Train a standard ensemble with H and measure its structure (§3.2).
  forest::ForestConfig probe = forest_template;
  probe.num_trees = num_trees;
  probe.tree = tuned;
  probe.seed = seed;
  TREEWM_ASSIGN_OR_RETURN(forest::RandomForest standard,
                          forest::RandomForest::Fit(train, /*weights=*/{}, probe));

  RunningStats depth_stats;
  for (double v : standard.TreeDepths()) depth_stats.Add(v);
  RunningStats leaf_stats;
  for (double v : standard.TreeLeafCounts()) leaf_stats.Add(v);

  // H := mean − stddev for both depth and leaf count, floored at the
  // smallest legal values so tiny/pure trees cannot produce degenerate
  // configs.
  tree::TreeConfig adjusted = tuned;
  const double target_depth = depth_stats.Mean() - depth_stats.PopulationStdDev();
  const double target_leaves = leaf_stats.Mean() - leaf_stats.PopulationStdDev();
  // Capacity floor: a tree forced to misclassify k trigger points needs room
  // to isolate them (≈ one extra leaf each and a path deep enough to reach
  // it), otherwise the boosting loop of TrainWithTrigger cannot converge.
  int depth_floor = 2;
  int leaf_floor = 4;
  if (trigger_size > 0) {
    leaf_floor = static_cast<int>(trigger_size) + 4;
    depth_floor = static_cast<int>(
                      std::ceil(std::log2(static_cast<double>(trigger_size) + 1.0))) +
                  3;
  }
  adjusted.max_depth =
      std::max(depth_floor, static_cast<int>(std::llround(target_depth)));
  adjusted.max_leaf_nodes =
      std::max(leaf_floor, static_cast<int>(std::llround(target_leaves)));
  return adjusted;
}

Result<WatermarkedModel> Watermarker::CreateWatermark(const data::Dataset& train,
                                                      const Signature& sigma) const {
  if (train.num_rows() < 10) {
    return Status::InvalidArgument("training set too small to watermark");
  }
  // Negated so NaN fails too.
  if (!(config_.trigger_fraction > 0.0 && config_.trigger_fraction <= 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "trigger_fraction %g must be in (0, 1]", config_.trigger_fraction));
  }
  const size_t m = sigma.length();
  Rng rng(config_.seed);

  // Line 12: H <- GridSearch(D_train, m).
  tree::TreeConfig tuned = config_.trigger_training.forest.tree;
  if (!config_.skip_grid_search) {
    forest::GridSearchConfig grid = config_.grid;
    grid.forest_template = config_.trigger_training.forest;
    grid.seed = rng.NextUint64();
    TREEWM_ASSIGN_OR_RETURN(forest::GridSearchOutcome outcome,
                            forest::GridSearch(train, m, grid));
    tuned = outcome.best;
  }

  // Line 13: D_trigger <- Sample(D_train, k).
  const size_t k = std::max<size_t>(
      1, static_cast<size_t>(std::llround(config_.trigger_fraction *
                                          static_cast<double>(train.num_rows()))));
  TREEWM_ASSIGN_OR_RETURN(std::vector<size_t> trigger_indices,
                          data::SampleTriggerIndices(train, k, &rng));

  // Line 2 (inside TrainWithTrigger in the paper): Adjust(H). Computed once
  // here and shared by both trainings — the heuristic only depends on the
  // standard ensemble, so the two calls in the paper compute the same thing.
  tree::TreeConfig adjusted = tuned;
  if (config_.adjust_hyperparameters) {
    TREEWM_ASSIGN_OR_RETURN(
        adjusted,
        AdjustHyperparameters(train, tuned, config_.trigger_training.forest, m,
                              rng.NextUint64(), k));
  }

  const size_t m_zero = sigma.NumZeros();  // paper's m'
  const size_t m_one = m - m_zero;

  TriggerTrainingConfig t0_config = config_.trigger_training;
  t0_config.forest.tree = adjusted;

  WatermarkedModel result{
      /*model=*/forest::RandomForest::FromTrees(
          {tree::DecisionTree::FromNodes({tree::TreeNode{-1, 0, -1, -1, +1}}, 1)
               .MoveValue()})
          .MoveValue(),
      /*signature=*/sigma,
      /*trigger_set=*/train.Subset(trigger_indices),
      /*trigger_indices=*/trigger_indices,
      /*tuned_config=*/tuned,
      /*adjusted_config=*/adjusted};

  // Line 15: T0, trees that must classify the trigger set correctly.
  // Lines 16-18: flip the trigger labels inside the training set, then T1,
  // trees that must predict the flipped labels. Neither search draws from
  // `rng`, so both seeds are drawn first and the two searches share every
  // wave of fits and one column sort (labels never enter it).
  data::Dataset flipped = train;
  for (size_t idx : trigger_indices) flipped.SetLabel(idx, -train.Label(idx));
  std::vector<TriggerSearch> searches;
  if (m_zero > 0) {
    t0_config.forest.num_trees = m_zero;
    t0_config.forest.seed = rng.NextUint64();
    searches.push_back({train, trigger_indices, t0_config});
  }
  if (m_one > 0) {
    TriggerTrainingConfig t1_config = t0_config;
    t1_config.forest.num_trees = m_one;
    t1_config.forest.seed = rng.NextUint64();
    searches.push_back({flipped, trigger_indices, t1_config});
  }
  TREEWM_ASSIGN_OR_RETURN(
      std::vector<TriggerTrainingResult> trained,
      TrainWithTriggerJointly(searches,
                              forest::BuildTrainingColumns(train, t0_config.forest)));
  std::vector<tree::DecisionTree> t0_trees;
  std::vector<tree::DecisionTree> t1_trees;
  if (m_zero > 0) {
    const TriggerTrainingResult& t0 = trained.front();
    result.t0_converged = t0.converged;
    result.t0_boost_rounds = t0.boost_rounds;
    t0_trees = t0.forest.trees();
  }
  if (m_one > 0) {
    const TriggerTrainingResult& t1 = trained.back();
    result.t1_converged = t1.converged;
    result.t1_boost_rounds = t1.boost_rounds;
    t1_trees = t1.forest.trees();
  }

  // Lines 19-22: interleave by signature bit.
  std::vector<tree::DecisionTree> interleaved;
  interleaved.reserve(m);
  size_t next_t0 = 0;
  size_t next_t1 = 0;
  for (size_t i = 0; i < m; ++i) {
    if (sigma.bit(i) == 0) {
      interleaved.push_back(std::move(t0_trees[next_t0++]));
    } else {
      interleaved.push_back(std::move(t1_trees[next_t1++]));
    }
  }
  TREEWM_ASSIGN_OR_RETURN(result.model,
                          forest::RandomForest::FromTrees(std::move(interleaved)));

  if (!result.t0_converged || !result.t1_converged) {
    LogWarning("watermark embedded with incomplete trigger agreement; "
               "verification may not match every trigger instance");
  }
  return result;
}

}  // namespace treewm::core
