// Tests for Algorithm 1 (watermark creation).

#include "core/watermark.h"

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "core/verification.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "io/ensemble_snapshot.h"
#include "predict/flat_ensemble.h"

namespace treewm::core {
namespace {

WatermarkConfig FastConfig(uint64_t seed) {
  WatermarkConfig config;
  config.seed = seed;
  config.grid.max_depth_grid = {4, -1};
  config.grid.num_folds = 2;
  config.trigger_training.forest.feature_fraction = 0.7;
  return config;
}

data::Dataset TrainData(uint64_t seed) {
  return data::synthetic::MakeBlobs(seed, 400, 8, 2.0);
}

TEST(WatermarkerTest, ProducesInterleavedEnsemble) {
  Rng rng(1);
  auto sigma = Signature::Random(12, 0.5, &rng);
  Watermarker watermarker(FastConfig(2));
  auto wm = watermarker.CreateWatermark(TrainData(3), sigma).MoveValue();
  EXPECT_EQ(wm.model.num_trees(), sigma.length());
  EXPECT_EQ(wm.signature, sigma);
  EXPECT_TRUE(wm.t0_converged);
  EXPECT_TRUE(wm.t1_converged);
}

TEST(WatermarkerTest, TriggerBehaviourFollowsSignatureBits) {
  // The defining property of the scheme: on every trigger instance, tree i
  // classifies correctly iff σ_i = 0.
  Rng rng(4);
  auto sigma = Signature::Random(10, 0.4, &rng);
  Watermarker watermarker(FastConfig(5));
  auto wm = watermarker.CreateWatermark(TrainData(6), sigma).MoveValue();
  ASSERT_TRUE(wm.t0_converged && wm.t1_converged);
  for (size_t i = 0; i < wm.trigger_set.num_rows(); ++i) {
    const auto votes = wm.model.PredictAll(wm.trigger_set.Row(i));
    const int y = wm.trigger_set.Label(i);
    for (size_t t = 0; t < sigma.length(); ++t) {
      const int required = sigma.bit(t) == 0 ? y : -y;
      EXPECT_EQ(votes[t], required) << "instance " << i << " tree " << t;
    }
  }
}

TEST(WatermarkerTest, TriggerSetKeepsOriginalLabels) {
  Rng rng(7);
  auto sigma = Signature::Random(8, 0.5, &rng);
  Watermarker watermarker(FastConfig(8));
  auto data = TrainData(9);
  auto wm = watermarker.CreateWatermark(data, sigma).MoveValue();
  ASSERT_EQ(wm.trigger_indices.size(), wm.trigger_set.num_rows());
  for (size_t i = 0; i < wm.trigger_indices.size(); ++i) {
    EXPECT_EQ(wm.trigger_set.Label(i), data.Label(wm.trigger_indices[i]));
  }
}

TEST(WatermarkerTest, TriggerFractionControlsSize) {
  Rng rng(10);
  auto sigma = Signature::Random(6, 0.5, &rng);
  WatermarkConfig config = FastConfig(11);
  config.trigger_fraction = 0.05;
  Watermarker watermarker(config);
  auto wm = watermarker.CreateWatermark(TrainData(12), sigma).MoveValue();
  EXPECT_EQ(wm.trigger_set.num_rows(), 20u);  // 5% of 400
}

TEST(WatermarkerTest, ExplicitTriggerSizeWins) {
  Rng rng(13);
  auto sigma = Signature::Random(6, 0.5, &rng);
  WatermarkConfig config = FastConfig(14);
  config.trigger_size = 7;
  config.trigger_fraction = 0.5;  // ignored
  Watermarker watermarker(config);
  auto wm = watermarker.CreateWatermark(TrainData(15), sigma).MoveValue();
  EXPECT_EQ(wm.trigger_set.num_rows(), 7u);
}

TEST(WatermarkerTest, AccuracyStaysCloseToStandardModel) {
  Rng rng(16);
  auto data = data::synthetic::MakeBreastCancerLike(17);
  auto tt = data::MakeTrainTest(data, 0.3, &rng).MoveValue();
  auto sigma = Signature::Random(20, 0.5, &rng);
  Watermarker watermarker(FastConfig(18));
  auto wm = watermarker.CreateWatermark(tt.train, sigma).MoveValue();

  forest::ForestConfig std_config;
  std_config.num_trees = 20;
  std_config.tree = wm.tuned_config;
  std_config.seed = 19;
  auto standard = forest::RandomForest::Fit(tt.train, {}, std_config).MoveValue();
  const double wm_acc = wm.model.Accuracy(tt.test);
  const double std_acc = standard.Accuracy(tt.test);
  // Paper Figure 3: the loss is at most a couple points.
  EXPECT_GT(wm_acc, std_acc - 0.05);
  EXPECT_GT(wm_acc, 0.85);
}

TEST(WatermarkerTest, AdjustLowersDepthAndLeafLimits) {
  auto data = TrainData(20);
  tree::TreeConfig tuned;  // unlimited
  forest::ForestConfig forest_template;
  forest_template.feature_fraction = 0.7;
  auto adjusted =
      Watermarker::AdjustHyperparameters(data, tuned, forest_template, 10, 21)
          .MoveValue();
  EXPECT_GT(adjusted.max_depth, 0);
  EXPECT_GT(adjusted.max_leaf_nodes, 0);
  // The adjusted limits must bind below the unconstrained structure.
  forest::ForestConfig probe = forest_template;
  probe.num_trees = 10;
  probe.seed = 21;
  auto unconstrained = forest::RandomForest::Fit(data, {}, probe).MoveValue();
  double mean_depth = 0.0;
  for (double v : unconstrained.TreeDepths()) mean_depth += v;
  mean_depth /= 10.0;
  EXPECT_LE(adjusted.max_depth, static_cast<int>(mean_depth) + 1);
}

TEST(WatermarkerTest, AdjustCanBeDisabled) {
  Rng rng(22);
  auto sigma = Signature::Random(8, 0.5, &rng);
  WatermarkConfig config = FastConfig(23);
  config.adjust_hyperparameters = false;
  Watermarker watermarker(config);
  auto wm = watermarker.CreateWatermark(TrainData(24), sigma).MoveValue();
  EXPECT_EQ(wm.adjusted_config.max_depth, wm.tuned_config.max_depth);
  EXPECT_EQ(wm.adjusted_config.max_leaf_nodes, wm.tuned_config.max_leaf_nodes);
}

TEST(WatermarkerTest, AllZeroAndAllOneSignatures) {
  Rng rng(25);
  Watermarker watermarker(FastConfig(26));
  auto data = TrainData(27);
  // All zeros: every tree classifies the trigger correctly.
  auto zeros = Signature::FromBits(std::vector<uint8_t>(6, 0)).MoveValue();
  auto wm0 = watermarker.CreateWatermark(data, zeros).MoveValue();
  EXPECT_EQ(wm0.model.num_trees(), 6u);
  // All ones: every tree misclassifies the trigger.
  auto ones = Signature::FromBits(std::vector<uint8_t>(6, 1)).MoveValue();
  auto wm1 = watermarker.CreateWatermark(data, ones).MoveValue();
  for (size_t i = 0; i < wm1.trigger_set.num_rows(); ++i) {
    for (int v : wm1.model.PredictAll(wm1.trigger_set.Row(i))) {
      EXPECT_EQ(v, -wm1.trigger_set.Label(i));
    }
  }
}

TEST(WatermarkerTest, RejectsTinyTrainingSets) {
  Rng rng(28);
  auto sigma = Signature::Random(4, 0.5, &rng);
  Watermarker watermarker(FastConfig(29));
  data::Dataset tiny(2);
  ASSERT_TRUE(tiny.AddRow(std::vector<float>{0.1f, 0.2f}, +1).ok());
  EXPECT_FALSE(watermarker.CreateWatermark(tiny, sigma).ok());
}

TEST(WatermarkerTest, SkipGridSearchUsesProvidedConfig) {
  Rng rng(30);
  auto sigma = Signature::Random(6, 0.5, &rng);
  WatermarkConfig config = FastConfig(31);
  config.skip_grid_search = true;
  config.adjust_hyperparameters = false;
  config.trigger_training.forest.tree.max_depth = 5;
  Watermarker watermarker(config);
  auto wm = watermarker.CreateWatermark(TrainData(32), sigma).MoveValue();
  EXPECT_EQ(wm.tuned_config.max_depth, 5);
  for (const auto& t : wm.model.trees()) EXPECT_LE(t.Depth(), 5);
}

/// Algorithm 1 on a small ijcnn1-like fixture (the embed workload's shape)
/// with every stage — grid search, Adjust, T0 and T1 — on `pool`.
WatermarkedModel GoldenFixtureWatermark(ThreadPool* pool) {
  Rng sigma_rng(129);
  const auto sigma = Signature::Random(12, 0.5, &sigma_rng);
  WatermarkConfig config;
  config.seed = 4;
  config.grid.max_depth_grid = {8, 12, -1};
  config.grid.num_folds = 3;
  config.trigger_fraction = 0.02;
  config.trigger_training.forest.feature_fraction = 0.4;
  config.trigger_training.forest.pool = pool;
  return Watermarker(config)
      .CreateWatermark(data::synthetic::MakeIjcnn1Like(47, 600), sigma)
      .MoveValue();
}

uint32_t Checksum(const forest::RandomForest& model) {
  return io::EnsembleChecksum(predict::FlatEnsemble::FromClassificationTrees(model.trees()));
}

TEST(WatermarkerTest, GoldenEnsembleChecksum) {
  // Thread sweeps compare the pipeline against itself; this pins the model
  // itself. Captured from the pipeline whose grid search fanned points out
  // over the pool, before points ran in grid order; must match exactly.
  const WatermarkedModel wm = GoldenFixtureWatermark(&ThreadPool::Global());
  EXPECT_EQ(Checksum(wm.model), 0x379BB18Eu);
  EXPECT_EQ(wm.tuned_config.max_depth, 8);
  EXPECT_EQ(wm.tuned_config.max_leaf_nodes, -1);
  EXPECT_EQ(wm.adjusted_config.max_depth, 8);
  EXPECT_EQ(wm.adjusted_config.max_leaf_nodes, 24);
  EXPECT_EQ(wm.trigger_set.num_rows(), 12u);
  EXPECT_EQ(wm.t0_boost_rounds, 0u);
  EXPECT_EQ(wm.t1_boost_rounds, 27u);
  EXPECT_TRUE(wm.t0_converged && wm.t1_converged);
}

TEST(WatermarkerTest, SerialConfigNeverSubmitsToAPool) {
  // pool = nullptr on the trigger-training forest runs all of Algorithm 1
  // on the caller: grid search (fold sorts, fits, scoring), Adjust, T0 and
  // T1. Every ThreadPool::Submit passes the thread_pool.submit.reject fault
  // site; armed at probability 0 it only counts.
  FaultSpec count_only;
  count_only.probability = 0.0;
  ScopedFault submits("thread_pool.submit.reject", count_only);
  const WatermarkedModel wm = GoldenFixtureWatermark(nullptr);
  EXPECT_EQ(submits.hits(), 0u);
  EXPECT_EQ(Checksum(wm.model), 0x379BB18Eu);  // the same model as pooled
}

TEST(WatermarkerTest, HistogramTrainerModeWatermarksAndVerifies) {
  // Grid search folds and the trigger loops must build binned columns for
  // the histogram engine, not sorted ones, with grid search on and off.
  Rng rng(36);
  auto tt = data::MakeTrainTest(TrainData(37), 0.3, &rng).MoveValue();
  auto sigma = Signature::Random(10, 0.5, &rng);
  for (bool skip_grid_search : {false, true}) {
    WatermarkConfig config = FastConfig(38);
    config.skip_grid_search = skip_grid_search;
    config.trigger_training.forest.tree.trainer_mode = tree::TrainerMode::kHistogram;
    auto wm = Watermarker(config).CreateWatermark(tt.train, sigma);
    ASSERT_TRUE(wm.ok()) << wm.status().ToString();
    EXPECT_TRUE(wm.value().t0_converged);
    EXPECT_TRUE(wm.value().t1_converged);
    ForestBlackBox suspect(wm.value().model);
    Rng shuffle(39);
    auto report = VerificationAuthority::Verify(
        suspect, VerificationRequest{sigma, wm.value().trigger_set, tt.test}, &shuffle);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report.value().verified) << "skip_grid_search=" << skip_grid_search;
  }
}

/// Sweep over signature compositions (paper Figure 3b's x-axis).
class BitFractionSweep : public ::testing::TestWithParam<double> {};

TEST_P(BitFractionSweep, WatermarkEmbedsForAnyOnesFraction) {
  const double fraction = GetParam();
  Rng rng(33);
  auto sigma = Signature::Random(10, fraction, &rng);
  Watermarker watermarker(FastConfig(34));
  auto wm = watermarker.CreateWatermark(TrainData(35), sigma).MoveValue();
  EXPECT_TRUE(wm.t0_converged);
  EXPECT_TRUE(wm.t1_converged);
  // Spot-check the signature property on the first trigger instance.
  const auto votes = wm.model.PredictAll(wm.trigger_set.Row(0));
  const int y = wm.trigger_set.Label(0);
  for (size_t t = 0; t < sigma.length(); ++t) {
    EXPECT_EQ(votes[t], sigma.bit(t) == 0 ? y : -y);
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, BitFractionSweep,
                         ::testing::Values(0.1, 0.2, 0.3, 0.4, 0.5, 0.6));

}  // namespace
}  // namespace treewm::core
