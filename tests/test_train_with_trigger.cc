// Tests for the sample-weight boosting loop (Algorithm 1 lines 1-9).

#include "core/train_with_trigger.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "core/watermark.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "forest/grid_search.h"
#include "pool_of_width.h"

namespace treewm::core {
namespace {

TriggerTrainingConfig SmallConfig(size_t num_trees, uint64_t seed) {
  TriggerTrainingConfig config;
  config.forest.num_trees = num_trees;
  config.forest.seed = seed;
  config.forest.feature_fraction = 0.7;
  return config;
}

data::Dataset FlipTrigger(const data::Dataset& data, const std::vector<size_t>& trigger) {
  data::Dataset flipped = data;
  for (size_t idx : trigger) flipped.SetLabel(idx, -data.Label(idx));
  return flipped;
}

/// The search must return what the linear loop returns, bit for bit.
void ExpectSameResult(const TriggerTrainingResult& search,
                      const TriggerTrainingResult& reference, const std::string& label) {
  EXPECT_EQ(search.boost_rounds, reference.boost_rounds) << label;
  EXPECT_EQ(search.converged, reference.converged) << label;
  EXPECT_EQ(search.final_trigger_weight, reference.final_trigger_weight) << label;
  ASSERT_EQ(search.forest.num_trees(), reference.forest.num_trees()) << label;
  for (size_t t = 0; t < reference.forest.num_trees(); ++t) {
    EXPECT_TRUE(
        search.forest.trees()[t].StructurallyEqual(reference.forest.trees()[t]))
        << label << " tree=" << t;
  }
}

TEST(TrainWithTriggerTest, ConvergesOnCorrectLabels) {
  auto data = data::synthetic::MakeBlobs(1, 300, 6, 2.0);
  Rng rng(2);
  auto trigger = data::SampleTriggerIndices(data, 6, &rng).MoveValue();
  auto result = TrainWithTrigger(data, trigger, SmallConfig(8, 3)).MoveValue();
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(AllTreesMatchTrigger(result.forest, data, trigger));
}

TEST(TrainWithTriggerTest, ConvergesOnFlippedLabels) {
  // The hard case: every tree must *misclassify* the trigger points.
  auto data = data::synthetic::MakeBlobs(4, 300, 6, 2.0);
  Rng rng(5);
  auto trigger = data::SampleTriggerIndices(data, 6, &rng).MoveValue();
  data::Dataset flipped = data;
  for (size_t idx : trigger) flipped.SetLabel(idx, -data.Label(idx));
  auto result = TrainWithTrigger(flipped, trigger, SmallConfig(8, 6)).MoveValue();
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(AllTreesMatchTrigger(result.forest, flipped, trigger));
  // And w.r.t. the original labels every tree is wrong on the trigger.
  for (size_t idx : trigger) {
    for (const auto& t : result.forest.trees()) {
      EXPECT_EQ(t.Predict(data.Row(idx)), -data.Label(idx));
    }
  }
}

TEST(TrainWithTriggerTest, ZeroRoundsWhenAlreadySatisfied) {
  // Highly separable data: the first forest already classifies everything.
  auto data = data::synthetic::MakeBlobs(7, 300, 4, 5.0);
  Rng rng(8);
  auto trigger = data::SampleTriggerIndices(data, 4, &rng).MoveValue();
  TriggerTrainingConfig config = SmallConfig(5, 9);
  config.forest.feature_fraction = 1.0;
  config.forest.pool = nullptr;
  auto result = TrainWithTrigger(data, trigger, config).MoveValue();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.boost_rounds, 0u);
  EXPECT_DOUBLE_EQ(result.final_trigger_weight, 1.0);
  // The lead tree, then the other four at the same round.
  EXPECT_EQ(result.tree_fits, 5u);
}

TEST(TrainWithTriggerTest, RulesOutRoundsWithoutRefittingTheForest) {
  auto data = data::synthetic::MakeBlobs(10, 400, 6, 0.8);
  Rng rng(11);
  auto trigger = data::SampleTriggerIndices(data, 8, &rng).MoveValue();
  const data::Dataset flipped = FlipTrigger(data, trigger);
  TriggerTrainingConfig config = SmallConfig(8, 12);
  config.forest.tree.max_leaf_nodes = 12;  // capacity-limited, as after Adjust
  config.forest.pool = nullptr;
  auto reference = TrainWithTriggerReference(flipped, trigger, config).MoveValue();
  auto search = TrainWithTrigger(flipped, trigger, config).MoveValue();
  ASSERT_GE(reference.boost_rounds, 10u);
  const size_t linear_fits = (reference.boost_rounds + 1) * 8;
  EXPECT_EQ(reference.tree_fits, linear_fits);
  EXPECT_LT(search.tree_fits, linear_fits);
  ExpectSameResult(search, reference, "serial");
}

TEST(TrainWithTriggerTest, WeightsGrowWithRounds) {
  auto data = data::synthetic::MakeBlobs(10, 400, 6, 0.8);  // noisy: needs boosting
  Rng rng(11);
  auto trigger = data::SampleTriggerIndices(data, 8, &rng).MoveValue();
  data::Dataset flipped = data;
  for (size_t idx : trigger) flipped.SetLabel(idx, -data.Label(idx));
  auto result = TrainWithTrigger(flipped, trigger, SmallConfig(6, 12)).MoveValue();
  if (result.boost_rounds > 0) {
    EXPECT_GT(result.final_trigger_weight, 1.0);
    EXPECT_DOUBLE_EQ(result.final_trigger_weight,
                     1.0 + static_cast<double>(result.boost_rounds));
  }
}

TEST(TrainWithTriggerTest, ImpossibleTriggerReportsNonConvergence) {
  // Two identical instances with contradictory labels, both in the trigger:
  // no tree can satisfy both, so the loop must hit its bound and report
  // converged=false instead of hanging.
  data::Dataset data(2);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        data.AddRow(std::vector<float>{0.2f + 0.01f * static_cast<float>(i), 0.5f},
                    i % 2 == 0 ? +1 : -1)
            .ok());
  }
  ASSERT_TRUE(data.AddRow(std::vector<float>{0.9f, 0.9f}, +1).ok());
  ASSERT_TRUE(data.AddRow(std::vector<float>{0.9f, 0.9f}, -1).ok());
  TriggerTrainingConfig config = SmallConfig(3, 13);
  config.max_boost_rounds = 5;
  config.forest.feature_fraction = 1.0;
  auto result = TrainWithTrigger(data, {30, 31}, config).MoveValue();
  EXPECT_FALSE(result.converged);
}

TEST(TrainWithTriggerTest, ValidatesInputs) {
  auto data = data::synthetic::MakeBlobs(14, 50, 3, 2.0);
  TriggerTrainingConfig config = SmallConfig(3, 15);
  EXPECT_FALSE(TrainWithTrigger(data, {}, config).ok());
  EXPECT_FALSE(TrainWithTrigger(data, {999}, config).ok());
  config.weight_increment = 0.0;
  EXPECT_FALSE(TrainWithTrigger(data, {0}, config).ok());
}

TEST(TrainWithTriggerTest, ThreadCountInvariantBitForBit) {
  // End-to-end through the sort-once engine: the whole weight-boosting loop
  // (shared SortedColumns reused across every retrain) must produce the
  // same forest, round count and final weight at every thread count.
  auto data = data::synthetic::MakeBlobs(30, 350, 6, 0.9);
  Rng rng(31);
  auto trigger = data::SampleTriggerIndices(data, 6, &rng).MoveValue();
  data::Dataset flipped = data;
  for (size_t idx : trigger) flipped.SetLabel(idx, -data.Label(idx));

  TriggerTrainingConfig config = SmallConfig(6, 32);
  config.forest.pool = nullptr;
  auto serial = TrainWithTrigger(flipped, trigger, config).MoveValue();
  std::unique_ptr<ThreadPool> owned;
  for (size_t threads : {2u, 4u}) {
    config.forest.pool = PoolOfWidth(threads, &owned);
    auto parallel = TrainWithTrigger(flipped, trigger, config).MoveValue();
    EXPECT_EQ(parallel.converged, serial.converged);
    EXPECT_EQ(parallel.boost_rounds, serial.boost_rounds);
    EXPECT_DOUBLE_EQ(parallel.final_trigger_weight, serial.final_trigger_weight);
    ASSERT_EQ(parallel.forest.num_trees(), serial.forest.num_trees());
    for (size_t t = 0; t < serial.forest.num_trees(); ++t) {
      EXPECT_TRUE(
          parallel.forest.trees()[t].StructurallyEqual(serial.forest.trees()[t]))
          << "threads=" << threads << " tree=" << t;
    }
  }
}

TEST(AllTreesMatchTriggerTest, DetectsDeviations) {
  auto data = data::synthetic::MakeBlobs(16, 100, 3, 3.0);
  Rng rng(17);
  auto trigger = data::SampleTriggerIndices(data, 3, &rng).MoveValue();
  auto result = TrainWithTrigger(data, trigger, SmallConfig(4, 18)).MoveValue();
  ASSERT_TRUE(result.converged);
  // Flip a trigger label: the match must now fail.
  data::Dataset tampered = data;
  tampered.SetLabel(trigger[0], -data.Label(trigger[0]));
  EXPECT_FALSE(AllTreesMatchTrigger(result.forest, tampered, trigger));
}

/// Sweep: convergence across trigger sizes and tree counts.
struct TriggerParam {
  size_t trigger_size;
  size_t num_trees;
};

class TriggerSweep : public ::testing::TestWithParam<TriggerParam> {};

TEST_P(TriggerSweep, FlippedTriggersConverge) {
  const TriggerParam p = GetParam();
  auto data = data::synthetic::MakeBlobs(20 + p.trigger_size, 400, 8, 1.5);
  Rng rng(21);
  auto trigger = data::SampleTriggerIndices(data, p.trigger_size, &rng).MoveValue();
  data::Dataset flipped = data;
  for (size_t idx : trigger) flipped.SetLabel(idx, -data.Label(idx));
  auto result =
      TrainWithTrigger(flipped, trigger, SmallConfig(p.num_trees, 22)).MoveValue();
  EXPECT_TRUE(result.converged)
      << "k=" << p.trigger_size << " m=" << p.num_trees;
}

INSTANTIATE_TEST_SUITE_P(Sizes, TriggerSweep,
                         ::testing::Values(TriggerParam{2, 4}, TriggerParam{4, 8},
                                           TriggerParam{8, 8}, TriggerParam{12, 6},
                                           TriggerParam{16, 10}));

/// Equivalence property: the search against the linear loop across seeds,
/// forest sizes m, correct and flipped trigger labels, weight increments,
/// round caps that force non-convergence, and thread counts.
class SearchEquivalence
    : public ::testing::TestWithParam<std::tuple<size_t, bool, double>> {};

TEST_P(SearchEquivalence, MatchesTheLinearLoop) {
  const auto [num_trees, flipped, increment] = GetParam();
  for (uint64_t seed : {1u, 2u, 3u}) {
    const auto data = data::synthetic::MakeBlobs(100 + seed, 240, 6, 1.0);
    Rng rng(seed);
    const auto trigger = data::SampleTriggerIndices(data, 6, &rng).MoveValue();
    const data::Dataset labeled = flipped ? FlipTrigger(data, trigger) : data;
    TriggerTrainingConfig config = SmallConfig(num_trees, 7 * seed);
    // Capacity-limited trees, as after Adjust, so the loop needs rounds.
    config.forest.tree.max_leaf_nodes = 12;
    config.forest.tree.max_depth = 6;
    config.weight_increment = increment;

    auto compare_at_every_thread_count = [&](const TriggerTrainingResult& reference) {
      std::unique_ptr<ThreadPool> owned;
      for (size_t threads : {1u, 2u, 4u}) {
        config.forest.pool = PoolOfWidth(threads, &owned);
        auto search = TrainWithTrigger(labeled, trigger, config);
        ASSERT_TRUE(search.ok()) << search.status().ToString();
        ExpectSameResult(search.value(), reference,
                         "seed=" + std::to_string(seed) +
                             " cap=" + std::to_string(config.max_boost_rounds) +
                             " threads=" + std::to_string(threads));
      }
    };
    config.forest.pool = nullptr;
    const auto reference = TrainWithTriggerReference(labeled, trigger, config).MoveValue();
    compare_at_every_thread_count(reference);
    if (reference.boost_rounds == 0) continue;
    // One round short of the linear loop's answer: it cannot converge.
    config.max_boost_rounds = reference.boost_rounds - 1;
    config.forest.pool = nullptr;
    const auto capped = TrainWithTriggerReference(labeled, trigger, config).MoveValue();
    ASSERT_FALSE(capped.converged);
    compare_at_every_thread_count(capped);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SearchEquivalence,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{4}, size_t{8}, size_t{13}),
                       ::testing::Bool(), ::testing::Values(1.0, 0.7, 2.0)));

TEST(SearchEquivalenceTest, CreateWatermarkMatchesALinearLoopReplay) {
  // CreateWatermark replayed stage by stage in its RNG draw order, with the
  // linear loop in place of the search, must give the same trees.
  const auto train = data::synthetic::MakeBlobs(40, 500, 8, 1.0);
  Rng sigma_rng(41);
  const Signature sigma = Signature::Random(12, 0.5, &sigma_rng);
  WatermarkConfig config;
  config.seed = 42;
  config.grid.max_depth_grid = {4, -1};
  config.grid.num_folds = 2;
  config.trigger_training.forest.feature_fraction = 0.5;
  const auto wm = Watermarker(config).CreateWatermark(train, sigma).MoveValue();

  const size_t m = sigma.length();
  const size_t m_zero = sigma.NumZeros();
  ASSERT_GT(m_zero, 0u);
  ASSERT_LT(m_zero, m);
  Rng rng(config.seed);
  forest::GridSearchConfig grid = config.grid;
  grid.forest_template = config.trigger_training.forest;
  grid.seed = rng.NextUint64();
  const tree::TreeConfig tuned = forest::GridSearch(train, m, grid).MoveValue().best;
  const size_t k = static_cast<size_t>(
      std::llround(config.trigger_fraction * static_cast<double>(train.num_rows())));
  const auto trigger = data::SampleTriggerIndices(train, k, &rng).MoveValue();
  const tree::TreeConfig adjusted =
      Watermarker::AdjustHyperparameters(train, tuned, config.trigger_training.forest,
                                         m, rng.NextUint64(), k)
          .MoveValue();
  TriggerTrainingConfig t0_config = config.trigger_training;
  t0_config.forest.tree = adjusted;
  t0_config.forest.num_trees = m_zero;
  t0_config.forest.seed = rng.NextUint64();
  const auto t0 = TrainWithTriggerReference(train, trigger, t0_config).MoveValue();
  TriggerTrainingConfig t1_config = t0_config;
  t1_config.forest.num_trees = m - m_zero;
  t1_config.forest.seed = rng.NextUint64();
  const auto t1 =
      TrainWithTriggerReference(FlipTrigger(train, trigger), trigger, t1_config).MoveValue();

  EXPECT_EQ(wm.t0_boost_rounds, t0.boost_rounds);
  EXPECT_EQ(wm.t1_boost_rounds, t1.boost_rounds);
  EXPECT_GT(t1.boost_rounds, 1u);  // the replay exercises the search
  ASSERT_EQ(wm.model.num_trees(), m);
  size_t next0 = 0;
  size_t next1 = 0;
  for (size_t i = 0; i < m; ++i) {
    const tree::DecisionTree& expected =
        sigma.bit(i) == 0 ? t0.forest.trees()[next0++] : t1.forest.trees()[next1++];
    EXPECT_TRUE(wm.model.trees()[i].StructurallyEqual(expected)) << "tree " << i;
  }
}

}  // namespace
}  // namespace treewm::core
