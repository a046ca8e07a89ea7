// Tests for the opt-in histogram (binned-gradient) training engine:
// binning correctness (distinct-value cut sets, equal-frequency caps, u16
// fallback), structural identity with the exact engine on integer-grid
// unit-weight data (where both engines search the same cuts and every
// accumulation is exact), accuracy parity on continuous data (the engine's
// actual contract — it is explicitly approximate), pool-width invariance of
// the binning pass, degenerate shapes, and the mode/substrate rejection
// matrix. See src/tree/README.md "Histogram training engine".

#include "tree/binned_columns.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "boosting/gbdt.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "tree/decision_tree.h"
#include "tree/sorted_columns.h"

namespace treewm::tree {
namespace {

/// Same coarse-grid generator the exact-engine equivalence tests use: when
/// `levels` distinct values fit in max_bins, the histogram engine's cut set
/// EQUALS the exact engine's, and unit-weight sums are exact integers in
/// double — so the two engines must agree bit-for-bit, node for node.
data::Dataset MakeGridDataset(uint64_t seed, size_t rows, size_t features,
                              uint64_t levels) {
  Rng rng(seed);
  data::Dataset d(features);
  std::vector<float> row(features);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < features; ++j) {
      row[j] = static_cast<float>(rng.UniformInt(levels)) /
               static_cast<float>(levels > 1 ? levels - 1 : 1);
    }
    const int label = rng.Bernoulli(0.5) ? data::kPositive : data::kNegative;
    EXPECT_TRUE(d.AddRow(row, label).ok());
  }
  return d;
}

/// The exact engine's threshold formula (splitter.h): midpoint between
/// adjacent distinct values, falling back to the lower value when rounding
/// would reach the upper one.
float MidpointThreshold(float lo, float hi) {
  float t = lo + (hi - lo) * 0.5f;
  if (t >= hi) t = lo;
  return t;
}

/// Equality up to threshold representation: same node array (features,
/// children, labels) in the same order AND every training row routed to the
/// same leaf index. On integer-grid data this is the strongest equality the
/// histogram engine can promise — its thresholds are midpoints of GLOBALLY
/// adjacent distinct values, while the exact engine uses the node-local
/// neighbors, so threshold floats legitimately differ below the root even
/// though the induced partition of the training rows is identical (see
/// src/tree/README.md).
bool SameTreeSamePartition(const DecisionTree& a, const DecisionTree& b,
                           const data::Dataset& d) {
  if (a.nodes().size() != b.nodes().size()) return false;
  for (size_t i = 0; i < a.nodes().size(); ++i) {
    const auto& na = a.nodes()[i];
    const auto& nb = b.nodes()[i];
    if (na.feature != nb.feature || na.left != nb.left || na.right != nb.right ||
        na.label != nb.label) {
      return false;
    }
  }
  for (size_t i = 0; i < d.num_rows(); ++i) {
    if (a.LeafIndexFor(d.Row(i)) != b.LeafIndexFor(d.Row(i))) return false;
  }
  return true;
}

/// Regression analogue; leaf values must be BIT-equal (integer targets make
/// every sum exact in double, so the same partition forces the same means).
bool SameRegressionTreeSamePartition(const boosting::RegressionTree& a,
                                     const boosting::RegressionTree& b,
                                     const data::Dataset& d) {
  if (a.nodes().size() != b.nodes().size()) return false;
  for (size_t i = 0; i < a.nodes().size(); ++i) {
    const auto& na = a.nodes()[i];
    const auto& nb = b.nodes()[i];
    if (na.feature != nb.feature || na.left != nb.left || na.right != nb.right) {
      return false;
    }
    if (na.feature == -1 && na.value != nb.value) return false;  // bit equality
  }
  for (size_t i = 0; i < d.num_rows(); ++i) {
    if (a.LeafIndexFor(d.Row(i)) != b.LeafIndexFor(d.Row(i))) return false;
  }
  return true;
}

TreeConfig HistogramConfig(size_t max_bins = 255) {
  TreeConfig config;
  config.trainer_mode = TrainerMode::kHistogram;
  config.max_bins = max_bins;
  return config;
}

// ---------------------------------------------------------------------------
// Binning

TEST(BinnedColumnsTest, DistinctValuesGetExactEngineCuts) {
  data::Dataset d(1);
  for (float v : {0.1f, 0.4f, 0.4f, 0.7f, 0.1f}) {
    ASSERT_TRUE(d.AddRow(std::vector<float>{v}, data::kPositive).ok());
  }
  auto binned = BinnedColumns::Build(d, BinnedOptions{}, nullptr).MoveValue();
  ASSERT_EQ(binned->num_bins(0), 3u);  // one bin per distinct value
  auto splits = binned->split_values(0);
  ASSERT_EQ(splits.size(), 2u);
  EXPECT_EQ(splits[0], MidpointThreshold(0.1f, 0.4f));
  EXPECT_EQ(splits[1], MidpointThreshold(0.4f, 0.7f));
  const std::vector<uint16_t> expected_codes{0, 1, 1, 2, 0};
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(binned->code(0, i), expected_codes[i]);
  EXPECT_FALSE(binned->wide());
}

TEST(BinnedColumnsTest, EqualFrequencyRespectsCapAndNeverCutsTiedRuns) {
  Rng rng(11);
  data::Dataset d(2);
  std::vector<float> row(2);
  for (size_t i = 0; i < 500; ++i) {
    row[0] = static_cast<float>(rng.UniformReal());  // ~500 distinct values
    row[1] = i < 300 ? 0.5f : static_cast<float>(rng.UniformReal());  // big tie
    ASSERT_TRUE(d.AddRow(row, data::kPositive).ok());
  }
  auto binned = BinnedColumns::Build(d, BinnedOptions{8}, nullptr).MoveValue();
  for (size_t f = 0; f < 2; ++f) {
    ASSERT_LE(binned->num_bins(f), 8u);
    ASSERT_GE(binned->num_bins(f), 2u);
    auto splits = binned->split_values(f);
    for (size_t b = 1; b < splits.size(); ++b) {
      EXPECT_LT(splits[b - 1], splits[b]);  // strictly increasing cuts
    }
    // Codes are order-consistent with values: the binning is a monotone map
    // and equal values always share a bin (tied runs are never split).
    for (size_t i = 0; i < 500; ++i) {
      for (size_t j = i + 1; j < 500; ++j) {
        const float vi = d.At(i, f);
        const float vj = d.At(j, f);
        if (vi == vj) {
          EXPECT_EQ(binned->code(f, i), binned->code(f, j));
        } else if (vi < vj) {
          EXPECT_LE(binned->code(f, i), binned->code(f, j));
        } else {
          EXPECT_GE(binned->code(f, i), binned->code(f, j));
        }
      }
    }
  }
}

TEST(BinnedColumnsTest, WideCodesKickInAbove256Bins) {
  // ~295 distinct grid values with room for one bin each -> u16 codes.
  data::Dataset d = MakeGridDataset(21, 1200, 2, 300);
  auto wide = BinnedColumns::Build(d, BinnedOptions{350}, nullptr).MoveValue();
  EXPECT_TRUE(wide->wide());
  EXPECT_GT(wide->num_bins(0), 256u);
  // The default cap folds the same data into u8.
  auto narrow = BinnedColumns::Build(d, BinnedOptions{}, nullptr).MoveValue();
  EXPECT_FALSE(narrow->wide());
  EXPECT_LE(narrow->num_bins(0), 255u);
}

TEST(BinnedColumnsTest, ConstantFeatureIsOneBinNoCuts) {
  data::Dataset d(2);
  Rng rng(31);
  for (size_t i = 0; i < 40; ++i) {
    std::vector<float> row{0.5f, static_cast<float>(rng.UniformReal())};
    ASSERT_TRUE(d.AddRow(row, data::kPositive).ok());
  }
  auto binned = BinnedColumns::Build(d, BinnedOptions{}, nullptr).MoveValue();
  EXPECT_EQ(binned->num_bins(0), 1u);
  EXPECT_TRUE(binned->split_values(0).empty());
}

TEST(BinnedColumnsTest, RejectsBadArguments) {
  data::Dataset d = MakeGridDataset(41, 20, 2, 4);
  EXPECT_FALSE(BinnedColumns::Build(d, BinnedOptions{1}, nullptr).ok());
  EXPECT_FALSE(BinnedColumns::Build(d, BinnedOptions{70000}, nullptr).ok());
  EXPECT_FALSE(  // empty
      BinnedColumns::Build(data::Dataset(3), BinnedOptions{}, nullptr).ok());

  auto binned = BinnedColumns::Build(d, BinnedOptions{}, nullptr).MoveValue();
  EXPECT_FALSE(ValidateBinnedMatch(nullptr, d).ok());
  data::Dataset other = MakeGridDataset(42, 30, 2, 4);
  EXPECT_FALSE(ValidateBinnedMatch(binned.get(), other).ok());
  EXPECT_TRUE(ValidateBinnedMatch(binned.get(), d).ok());
}

TEST(BinnedColumnsTest, BuildIsIdenticalAtEveryThreadCount) {
  data::Dataset d = MakeGridDataset(51, 600, 5, 40);
  auto serial = BinnedColumns::Build(d, BinnedOptions{16}, nullptr).MoveValue();
  for (size_t threads : {2u, 5u}) {
    ThreadPool pool(threads);
    auto parallel = BinnedColumns::Build(d, BinnedOptions{16}, &pool).MoveValue();
    for (size_t f = 0; f < d.num_features(); ++f) {
      ASSERT_EQ(parallel->num_bins(f), serial->num_bins(f));
      auto a = serial->split_values(f);
      auto b = parallel->split_values(f);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
      for (size_t r = 0; r < d.num_rows(); ++r) {
        ASSERT_EQ(parallel->code(f, r), serial->code(f, r));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Structural identity with the exact engine where the cut sets coincide

TEST(HistogramStructuralTest, GridTreesMatchExactEnginePartitionForPartition) {
  // When every feature's distinct values fit in max_bins, the histogram
  // engine searches the same candidate PARTITIONS as the exact engine, and
  // unit-weight accumulations are exact integers — so the trees must have
  // the identical node array (same features, children, labels, numbering)
  // and route every training row to the same leaf. This pins the whole
  // grower: sweep order, tie breaks, best-first queue order, node
  // numbering. (Threshold floats differ below the root by design — the
  // histogram engine cuts at global bin boundaries.)
  size_t cases = 0;
  for (uint64_t levels : {4u, 16u, 64u}) {
    for (SplitCriterion criterion :
         {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
      for (int limits = 0; limits < 3; ++limits) {
        const uint64_t seed = 700 + cases;
        data::Dataset d = MakeGridDataset(seed, 200, 5, levels);
        TreeConfig exact_config;
        exact_config.criterion = criterion;
        if (limits == 1) {
          exact_config.max_leaf_nodes = 9;  // best-first growth
          exact_config.min_samples_leaf = 3;
        } else if (limits == 2) {
          exact_config.max_depth = 4;
          exact_config.min_samples_split = 8;
        }
        TreeConfig hist_config = exact_config;
        hist_config.trainer_mode = TrainerMode::kHistogram;
        auto exact = DecisionTree::Fit(d, {}, exact_config).MoveValue();
        auto hist = DecisionTree::Fit(d, {}, hist_config).MoveValue();
        EXPECT_TRUE(SameTreeSamePartition(hist, exact, d))
            << "levels=" << levels << " criterion=" << static_cast<int>(criterion)
            << " limits=" << limits;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 18u);
}

TEST(HistogramStructuralTest, WideGridTreesMatchExactThroughU16Codes) {
  data::Dataset d = MakeGridDataset(801, 1200, 3, 300);
  auto binned = BinnedColumns::Build(d, BinnedOptions{350}, nullptr).MoveValue();
  ASSERT_TRUE(binned->wide());  // the u16 accumulate/partition paths run
  TreeConfig hist_config = HistogramConfig(350);
  hist_config.max_depth = 6;
  TreeConfig exact_config;
  exact_config.max_depth = 6;
  auto hist =
      DecisionTree::Fit(d, {}, hist_config, {}, nullptr, binned.get()).MoveValue();
  auto exact = DecisionTree::Fit(d, {}, exact_config).MoveValue();
  EXPECT_TRUE(SameTreeSamePartition(hist, exact, d));
}

TEST(HistogramStructuralTest, GridRegressionTreesMatchExactOnIntegerTargets) {
  for (uint64_t levels : {3u, 12u}) {
    for (size_t msl : {1u, 4u}) {
      const uint64_t seed = 900 + levels + msl;
      data::Dataset d = MakeGridDataset(seed, 220, 4, levels);
      Rng rng(seed + 1);
      std::vector<double> targets(220);
      for (auto& t : targets) {
        t = static_cast<double>(rng.UniformInt(9)) - 4.0;  // exact in double
      }
      boosting::RegressionTreeConfig exact_config;
      exact_config.max_depth = 5;
      exact_config.min_samples_leaf = msl;
      boosting::RegressionTreeConfig hist_config = exact_config;
      hist_config.trainer_mode = TrainerMode::kHistogram;
      auto exact = boosting::RegressionTree::Fit(d, targets, exact_config).MoveValue();
      auto hist = boosting::RegressionTree::Fit(d, targets, hist_config).MoveValue();
      EXPECT_TRUE(SameRegressionTreeSamePartition(hist, exact, d))
          << "levels=" << levels << " msl=" << msl;
    }
  }
}

TEST(HistogramStructuralTest, GridForestsMatchExactTreeForTree) {
  data::Dataset d = MakeGridDataset(1001, 240, 6, 10);
  forest::ForestConfig exact_config;
  exact_config.num_trees = 4;
  exact_config.feature_fraction = 0.5;
  exact_config.seed = 23;
  exact_config.pool = nullptr;
  auto exact = forest::RandomForest::Fit(d, {}, exact_config).MoveValue();

  ThreadPool two(2);
  forest::ForestConfig hist_config = exact_config;
  hist_config.tree.trainer_mode = TrainerMode::kHistogram;
  hist_config.pool = &two;  // the forest's binning and trees fan out on two workers
  auto hist = forest::RandomForest::Fit(d, {}, hist_config).MoveValue();
  ASSERT_EQ(hist.num_trees(), exact.num_trees());
  for (size_t t = 0; t < hist.num_trees(); ++t) {
    EXPECT_TRUE(SameTreeSamePartition(hist.trees()[t], exact.trees()[t], d))
        << "tree " << t;
  }
}

TEST(HistogramStructuralTest, PrebuiltBinnedColumnsMatchInternalBuild) {
  data::Dataset d = MakeGridDataset(1101, 150, 4, 12);
  auto binned = BinnedColumns::Build(d, BinnedOptions{}, nullptr).MoveValue();
  auto with = DecisionTree::Fit(d, {}, HistogramConfig(), {}, nullptr, binned.get())
                  .MoveValue();
  auto without = DecisionTree::Fit(d, {}, HistogramConfig()).MoveValue();
  EXPECT_TRUE(with.StructurallyEqual(without));
}

// ---------------------------------------------------------------------------
// Accuracy parity on continuous data — the approximate engine's contract

TEST(HistogramParityTest, AccuracyParityAcrossBinsCriteriaDepthsAndWeights) {
  // On continuous features the engines search different cut sets, so trees
  // differ; the contract is held-out accuracy parity. The sweep crosses
  // code width (32/255 = u8, 300 = u16), criterion, depth cap and weight
  // style.
  const data::Dataset train = data::synthetic::MakeBlobs(601, 600, 8, 1.2);
  const data::Dataset holdout = data::synthetic::MakeBlobs(602, 400, 8, 1.2);
  Rng weight_rng(603);
  std::vector<double> trigger_weights(600, 1.0);
  for (auto& w : trigger_weights) w = weight_rng.Bernoulli(0.2) ? 7.3 : 1.0;

  for (size_t max_bins : {32u, 255u, 300u}) {
    for (SplitCriterion criterion :
         {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
      for (int max_depth : {4, -1}) {
        for (int weight_kind : {0, 1}) {
          const std::vector<double> w =
              weight_kind == 0 ? std::vector<double>{} : trigger_weights;
          TreeConfig exact_config;
          exact_config.criterion = criterion;
          exact_config.max_depth = max_depth;
          TreeConfig hist_config = exact_config;
          hist_config.trainer_mode = TrainerMode::kHistogram;
          hist_config.max_bins = max_bins;
          auto exact = DecisionTree::Fit(train, w, exact_config).MoveValue();
          auto hist = DecisionTree::Fit(train, w, hist_config).MoveValue();
          EXPECT_NEAR(hist.Accuracy(holdout), exact.Accuracy(holdout), 0.05)
              << "bins=" << max_bins << " criterion=" << static_cast<int>(criterion)
              << " depth=" << max_depth << " weights=" << weight_kind;
        }
      }
    }
  }
}

TEST(HistogramParityTest, GbdtParityWithOneBinningPassAcrossRounds) {
  const data::Dataset train = data::synthetic::MakeBlobs(611, 800, 6, 1.1);
  const data::Dataset holdout = data::synthetic::MakeBlobs(612, 400, 6, 1.1);
  boosting::GbdtConfig exact_config;
  exact_config.num_trees = 15;
  exact_config.tree.max_depth = 3;
  boosting::GbdtConfig hist_config = exact_config;
  hist_config.tree.trainer_mode = TrainerMode::kHistogram;
  auto exact = boosting::Gbdt::Fit(train, exact_config).MoveValue();
  auto hist = boosting::Gbdt::Fit(train, hist_config).MoveValue();
  EXPECT_NEAR(hist.Accuracy(holdout), exact.Accuracy(holdout), 0.05);
  EXPECT_GT(hist.Accuracy(holdout), 0.7);  // parity with a broken exact engine
                                           // would pass the NEAR alone
}

TEST(HistogramParityTest, ForestParityOnContinuousData) {
  const data::Dataset train = data::synthetic::MakeBlobs(621, 500, 10, 1.0);
  const data::Dataset holdout = data::synthetic::MakeBlobs(622, 400, 10, 1.0);
  forest::ForestConfig exact_config;
  exact_config.num_trees = 10;
  exact_config.seed = 5;
  exact_config.pool = nullptr;
  forest::ForestConfig hist_config = exact_config;
  hist_config.tree.trainer_mode = TrainerMode::kHistogram;
  auto exact = forest::RandomForest::Fit(train, {}, exact_config).MoveValue();
  auto hist = forest::RandomForest::Fit(train, {}, hist_config).MoveValue();
  EXPECT_NEAR(hist.Accuracy(holdout), exact.Accuracy(holdout), 0.05);
  EXPECT_GT(hist.Accuracy(holdout), 0.7);
}

// ---------------------------------------------------------------------------
// Degenerate shapes

TEST(HistogramDegenerateTest, ConstantFeaturesYieldSingleLeaf) {
  data::Dataset d(3);
  for (size_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(d.AddRow(std::vector<float>{0.2f, 0.7f, 0.0f},
                         i % 3 == 0 ? data::kPositive : data::kNegative)
                    .ok());
  }
  auto tree = DecisionTree::Fit(d, {}, HistogramConfig()).MoveValue();
  EXPECT_EQ(tree.NumLeaves(), 1u);
  EXPECT_EQ(tree.nodes()[0].label, data::kNegative);  // majority
}

TEST(HistogramDegenerateTest, PureLabelsYieldSingleLeaf) {
  data::Dataset d = MakeGridDataset(641, 50, 4, 8);
  for (size_t i = 0; i < d.num_rows(); ++i) d.SetLabel(i, data::kPositive);
  auto tree = DecisionTree::Fit(d, {}, HistogramConfig()).MoveValue();
  EXPECT_EQ(tree.NumLeaves(), 1u);
  EXPECT_EQ(tree.nodes()[0].label, data::kPositive);
}

TEST(HistogramDegenerateTest, LeafCapIsHonoredOnContinuousData) {
  const data::Dataset d = data::synthetic::MakeBlobs(651, 400, 6, 0.8);
  TreeConfig config = HistogramConfig();
  config.max_leaf_nodes = 7;
  auto tree = DecisionTree::Fit(d, {}, config).MoveValue();
  EXPECT_LE(tree.NumLeaves(), 7u);
  EXPECT_GE(tree.NumLeaves(), 2u);  // blobs are splittable
}

// ---------------------------------------------------------------------------
// Rejection matrix: modes and substrates must not mix

TEST(HistogramRejectionTest, SubstrateAndModeMixesAreInvalid) {
  data::Dataset d = MakeGridDataset(661, 80, 3, 6);
  auto sorted = SortedColumns::Build(d, nullptr);
  auto binned = BinnedColumns::Build(d, BinnedOptions{}, nullptr).MoveValue();
  const std::vector<double> targets(80, 0.5);

  // Histogram mode + sorted columns.
  EXPECT_FALSE(DecisionTree::Fit(d, {}, HistogramConfig(), {}, sorted.get()).ok());
  // Exact mode + binned columns.
  EXPECT_FALSE(
      DecisionTree::Fit(d, {}, TreeConfig{}, {}, nullptr, binned.get()).ok());
  // The reference trainer is the exact-mode spec.
  EXPECT_FALSE(DecisionTree::FitReference(d, {}, HistogramConfig()).ok());

  boosting::RegressionTreeConfig reg_hist;
  reg_hist.trainer_mode = TrainerMode::kHistogram;
  EXPECT_FALSE(
      boosting::RegressionTree::Fit(d, targets, reg_hist, sorted.get()).ok());
  boosting::RegressionTreeConfig reg_exact;
  EXPECT_FALSE(
      boosting::RegressionTree::Fit(d, targets, reg_exact, nullptr, binned.get())
          .ok());
  EXPECT_FALSE(boosting::RegressionTree::FitReference(d, targets, reg_hist).ok());

  boosting::GbdtConfig gbdt_config;
  gbdt_config.tree.trainer_mode = TrainerMode::kHistogram;
  gbdt_config.use_reference_trainer = true;
  EXPECT_FALSE(gbdt_config.Validate().ok());

  forest::ForestConfig forest_config;
  forest_config.tree.trainer_mode = TrainerMode::kHistogram;
  forest_config.use_reference_trainer = true;
  EXPECT_FALSE(forest_config.Validate().ok());

  forest::ForestConfig forest_hist;
  forest_hist.num_trees = 2;
  forest_hist.tree.trainer_mode = TrainerMode::kHistogram;
  EXPECT_FALSE(forest::RandomForest::Fit(d, {}, forest_hist, sorted).ok());
  forest::ForestConfig forest_exact;
  forest_exact.num_trees = 2;
  EXPECT_FALSE(forest::RandomForest::Fit(d, {}, forest_exact, nullptr, binned).ok());

  // Shape mismatch between dataset and prebuilt binning.
  data::Dataset other = MakeGridDataset(662, 60, 3, 6);
  EXPECT_FALSE(
      DecisionTree::Fit(other, {}, HistogramConfig(), {}, nullptr, binned.get())
          .ok());

  // Out-of-range bin cap is rejected at config validation.
  TreeConfig bad_bins = HistogramConfig(1);
  EXPECT_FALSE(DecisionTree::Fit(d, {}, bad_bins).ok());
}

TEST(HistogramRejectionTest, ExactRemainsTheDefaultMode) {
  EXPECT_EQ(TreeConfig{}.trainer_mode, TrainerMode::kExact);
  EXPECT_EQ(boosting::RegressionTreeConfig{}.trainer_mode, TrainerMode::kExact);
}

}  // namespace
}  // namespace treewm::tree
