// Property tests for the sort-once training engine: the presorted
// column-index trainer must produce BIT-IDENTICAL trees, forests and GBDTs
// to the retained naive reference (per-node re-sorting splitter), across
// duplicate feature values, weighted rows, min_samples_leaf edges, constant
// features, both criteria, best-first growth, boosting stages and thread
// counts. See src/tree/README.md for the equivalence contract.

#include "tree/trainer_core.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "boosting/gbdt.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "pool_of_width.h"
#include "tree/decision_tree.h"
#include "tree/sorted_columns.h"

namespace treewm::tree {
namespace {

/// A dataset drawn on a coarse value grid — duplicate feature values (tied
/// runs) are the norm, not the exception, which is exactly what stresses the
/// stable-tie accumulation contract.
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

/// Random weight vectors exercising the FP-order-sensitive cases: empty
/// (unit), smooth random, and two-valued trigger-style (distinct weights
/// inside value-tied runs).
std::vector<double> MakeWeights(uint64_t seed, size_t rows, int kind) {
  if (kind == 0) return {};
  Rng rng(seed);
  std::vector<double> w(rows, 1.0);
  for (size_t i = 0; i < rows; ++i) {
    w[i] = kind == 1 ? 0.25 + rng.UniformReal() * 4.0
                     : (rng.Bernoulli(0.2) ? 7.3 : 1.0);
  }
  return w;
}

bool RegressionTreesIdentical(const boosting::RegressionTree& a,
                              const boosting::RegressionTree& b) {
  if (a.nodes().size() != b.nodes().size()) return false;
  for (size_t i = 0; i < a.nodes().size(); ++i) {
    const auto& na = a.nodes()[i];
    const auto& nb = b.nodes()[i];
    if (na.feature != nb.feature || na.left != nb.left || na.right != nb.right) {
      return false;
    }
    if (na.feature != -1 && na.threshold != nb.threshold) return false;
    if (na.feature == -1 && na.value != nb.value) return false;  // bit equality
  }
  return true;
}

TEST(SortedColumnsTest, ColumnsAreSortedWithStableTies) {
  data::Dataset d = MakeGridDataset(3, 200, 4, 8);
  auto sorted = SortedColumns::Build(d, nullptr);
  ASSERT_EQ(sorted->num_rows(), 200u);
  ASSERT_EQ(sorted->num_features(), 4u);
  for (size_t f = 0; f < 4; ++f) {
    auto col = sorted->Column(f);
    ASSERT_EQ(col.size(), 200u);
    std::vector<bool> seen(200, false);
    for (size_t i = 0; i < col.size(); ++i) {
      EXPECT_EQ(col[i].value, d.At(col[i].row, f));
      EXPECT_FALSE(seen[col[i].row]);
      seen[col[i].row] = true;
      if (i > 0) {
        EXPECT_LE(col[i - 1].value, col[i].value);
        if (col[i - 1].value == col[i].value) {
          EXPECT_LT(col[i - 1].row, col[i].row);  // ties ascending by row
        }
      }
    }
  }
}

TEST(SortedColumnsTest, ParallelBuildIsBitIdenticalAtEveryThreadCount) {
  // The per-feature sorts are independent, so fanning them out across a pool
  // must reproduce the serial build exactly — same rows, same values, same
  // tie order — at every pool width (including widths above the feature
  // count, which leave some workers idle).
  data::Dataset d = MakeGridDataset(811, 400, 6, 5);  // coarse grid: tie-heavy
  auto serial = SortedColumns::Build(d, nullptr);
  for (size_t threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    auto parallel = SortedColumns::Build(d, &pool);
    ASSERT_EQ(parallel->num_features(), serial->num_features());
    for (size_t f = 0; f < serial->num_features(); ++f) {
      auto a = serial->Column(f);
      auto b = parallel->Column(f);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].row, b[i].row) << "threads=" << threads << " f=" << f;
        EXPECT_EQ(a[i].value, b[i].value) << "threads=" << threads << " f=" << f;
      }
    }
  }
  // The process pool matches too.
  auto pooled = SortedColumns::Build(d, &ThreadPool::Global());
  for (size_t f = 0; f < serial->num_features(); ++f) {
    auto a = serial->Column(f);
    auto b = pooled->Column(f);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].row, b[i].row);
      EXPECT_EQ(a[i].value, b[i].value);
    }
  }
}

TEST(TrainerCoreTest, ApplySplitKeepsEveryColumnSortedAndTieStable) {
  data::Dataset d = MakeGridDataset(5, 150, 3, 6);
  auto sorted = SortedColumns::Build(d, nullptr);
  TrainerCore core(*sorted, {0, 1, 2}, /*with_identity=*/true);

  // Split the root on feature 1 at its median prefix.
  const size_t left_count = 70;
  const size_t mid = core.ApplySplit(0, 150, core.SlotOf(1), left_count);
  ASSERT_EQ(mid, left_count);

  // The left side is exactly the value-sorted prefix rows of feature 1.
  auto split_col = core.Column(core.SlotOf(1), 0, mid);
  std::vector<bool> is_left(150, false);
  for (const ColumnEntry& e : split_col) is_left[e.row] = true;

  for (size_t slot = 0; slot < 3; ++slot) {
    for (auto [begin, end] : {std::pair<size_t, size_t>{0, mid},
                              std::pair<size_t, size_t>{mid, 150}}) {
      auto col = core.Column(slot, begin, end);
      size_t members = 0;
      for (size_t i = 0; i < col.size(); ++i) {
        EXPECT_EQ(is_left[col[i].row], begin == 0);
        ++members;
        if (i > 0) {
          EXPECT_LE(col[i - 1].value, col[i].value);
          if (col[i - 1].value == col[i].value) {
            EXPECT_LT(col[i - 1].row, col[i].row);
          }
        }
      }
      EXPECT_EQ(members, end - begin);
    }
  }
  // Identity column: each side in ascending original-row order.
  for (auto [begin, end] : {std::pair<size_t, size_t>{0, mid},
                            std::pair<size_t, size_t>{mid, 150}}) {
    auto ids = core.Members(begin, end);
    for (size_t i = 1; i < ids.size(); ++i) {
      EXPECT_LT(ids[i - 1].row, ids[i].row);
    }
  }
}

TEST(TrainerEquivalenceTest, TreesMatchReferenceAcrossRandomizedSettings) {
  // The headline property: for every combination of tie density, weight
  // style, criterion, leaf cap and depth cap, the sort-once trainer emits
  // the same node array (same features, bit-identical thresholds, same
  // child indices, same labels) as the retained naive reference.
  size_t cases = 0;
  for (uint64_t levels : {4u, 16u, 1u << 20}) {
    for (int weight_kind : {0, 1, 2}) {
      for (SplitCriterion criterion :
           {SplitCriterion::kGini, SplitCriterion::kEntropy}) {
        for (int limits = 0; limits < 3; ++limits) {
          const uint64_t seed = 100 + cases;
          data::Dataset d = MakeGridDataset(seed, 180, 5, levels);
          std::vector<double> w = MakeWeights(seed * 7 + 1, 180, weight_kind);
          TreeConfig config;
          config.criterion = criterion;
          if (limits == 1) {
            config.max_leaf_nodes = 9;  // best-first growth
            config.min_samples_leaf = 3;
          } else if (limits == 2) {
            config.max_depth = 4;
            config.min_samples_split = 8;
          }
          auto fast = DecisionTree::Fit(d, w, config);
          auto reference = DecisionTree::FitReference(d, w, config);
          ASSERT_TRUE(fast.ok() && reference.ok());
          EXPECT_TRUE(fast.value().StructurallyEqual(reference.value()))
              << "levels=" << levels << " weights=" << weight_kind
              << " criterion=" << static_cast<int>(criterion)
              << " limits=" << limits;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 54u);
}

TEST(TrainerEquivalenceTest, WeightedTieRunsMatchBitForBit) {
  // Distinct weights inside value-tied runs are the FP-order-sensitive case
  // the stable-tie contract exists for: both engines must accumulate the
  // tied run in ascending row order or gains drift by ulps.
  data::Dataset d = MakeGridDataset(77, 300, 3, 3);  // 3 levels -> huge tie runs
  Rng rng(78);
  std::vector<double> w(300);
  for (auto& x : w) x = 0.1 + rng.UniformReal() * 9.9;
  TreeConfig config;
  auto fast = DecisionTree::Fit(d, w, config).MoveValue();
  auto reference = DecisionTree::FitReference(d, w, config).MoveValue();
  EXPECT_TRUE(fast.StructurallyEqual(reference));
}

TEST(TrainerEquivalenceTest, ConstantAndNearConstantFeatures) {
  data::Dataset d(4);
  Rng rng(9);
  for (size_t i = 0; i < 120; ++i) {
    // f0 constant, f1 constant except one row, f2/f3 informative.
    std::vector<float> row{0.5f, i == 57 ? 0.9f : 0.2f,
                           static_cast<float>(rng.UniformReal()),
                           static_cast<float>(rng.UniformInt(4)) / 3.0f};
    const int label = row[2] + row[3] > 0.8f ? data::kPositive : data::kNegative;
    ASSERT_TRUE(d.AddRow(row, label).ok());
  }
  for (size_t msl : {1u, 2u, 10u}) {
    TreeConfig config;
    config.min_samples_leaf = msl;
    auto fast = DecisionTree::Fit(d, {}, config).MoveValue();
    auto reference = DecisionTree::FitReference(d, {}, config).MoveValue();
    EXPECT_TRUE(fast.StructurallyEqual(reference)) << "min_samples_leaf=" << msl;
  }
}

TEST(TrainerEquivalenceTest, FeatureSubsetOrderIsRespected) {
  // Sweep order = subset order (it breaks equal-gain ties), including
  // subsets given in non-ascending order as RandomForest draws them.
  data::Dataset d = MakeGridDataset(31, 160, 6, 8);
  for (const std::vector<int>& subset :
       {std::vector<int>{3, 0, 5}, std::vector<int>{5, 4, 3, 2, 1, 0},
        std::vector<int>{1}}) {
    auto fast = DecisionTree::Fit(d, {}, TreeConfig{}, subset).MoveValue();
    auto reference =
        DecisionTree::FitReference(d, {}, TreeConfig{}, subset).MoveValue();
    EXPECT_TRUE(fast.StructurallyEqual(reference));
  }
}

TEST(TrainerEquivalenceTest, PrebuiltColumnsMatchInternalBuild) {
  data::Dataset d = MakeGridDataset(41, 140, 4, 10);
  auto sorted = SortedColumns::Build(d, nullptr);
  auto with = DecisionTree::Fit(d, {}, TreeConfig{}, {}, sorted.get()).MoveValue();
  auto without = DecisionTree::Fit(d, {}, TreeConfig{}).MoveValue();
  EXPECT_TRUE(with.StructurallyEqual(without));
}

TEST(TrainerEquivalenceTest, MismatchedSortedColumnsAreRejected) {
  data::Dataset d = MakeGridDataset(43, 100, 4, 10);
  data::Dataset other = MakeGridDataset(44, 60, 4, 10);
  auto wrong = SortedColumns::Build(other, nullptr);
  EXPECT_FALSE(DecisionTree::Fit(d, {}, TreeConfig{}, {}, wrong.get()).ok());
  EXPECT_FALSE(boosting::RegressionTree::Fit(d, std::vector<double>(100, 0.5),
                                             boosting::RegressionTreeConfig{},
                                             wrong.get())
                   .ok());
  forest::ForestConfig fc;
  fc.num_trees = 2;
  EXPECT_FALSE(forest::RandomForest::Fit(d, {}, fc, wrong).ok());
}

TEST(TrainerEquivalenceTest, RegressionTreesMatchReference) {
  for (uint64_t levels : {3u, 12u, 1u << 20}) {
    for (size_t msl : {1u, 4u}) {
      const uint64_t seed = 200 + levels + msl;
      data::Dataset d = MakeGridDataset(seed, 220, 4, levels);
      Rng rng(seed + 1);
      std::vector<double> targets(220);
      for (auto& t : targets) t = rng.Gaussian();
      boosting::RegressionTreeConfig config;
      config.max_depth = 5;
      config.min_samples_leaf = msl;
      auto fast = boosting::RegressionTree::Fit(d, targets, config).MoveValue();
      auto reference =
          boosting::RegressionTree::FitReference(d, targets, config).MoveValue();
      EXPECT_TRUE(RegressionTreesIdentical(fast, reference))
          << "levels=" << levels << " msl=" << msl;
    }
  }
}

TEST(TrainerEquivalenceTest, GbdtStagesMatchReferenceBitForBit) {
  // Boosting couples the stages: round k's targets depend on every earlier
  // tree, so ANY divergence anywhere compounds. Equality of the final model
  // therefore proves per-stage equality too.
  data::Dataset d = MakeGridDataset(301, 240, 5, 9);
  boosting::GbdtConfig config;
  config.num_trees = 12;
  config.tree.max_depth = 3;
  auto fast = boosting::Gbdt::Fit(d, config).MoveValue();
  config.use_reference_trainer = true;
  auto reference = boosting::Gbdt::Fit(d, config).MoveValue();

  ASSERT_EQ(fast.num_trees(), reference.num_trees());
  EXPECT_EQ(fast.initial_score(), reference.initial_score());
  for (size_t t = 0; t < fast.num_trees(); ++t) {
    EXPECT_TRUE(RegressionTreesIdentical(fast.trees()[t], reference.trees()[t]))
        << "stage " << t;
  }
  for (size_t i = 0; i < 25; ++i) {
    EXPECT_EQ(fast.Score(d.Row(i)), reference.Score(d.Row(i)));  // bit equality
  }
}

TEST(TrainerEquivalenceTest, ForestsMatchReferenceAtEveryThreadCount) {
  data::Dataset d = MakeGridDataset(401, 200, 6, 7);
  forest::ForestConfig config;
  config.num_trees = 6;
  config.feature_fraction = 0.5;
  config.seed = 17;
  config.pool = nullptr;
  config.use_reference_trainer = true;
  auto reference = forest::RandomForest::Fit(d, {}, config).MoveValue();

  std::vector<double> weights = MakeWeights(402, 200, 2);
  config.use_reference_trainer = true;
  auto weighted_reference = forest::RandomForest::Fit(d, weights, config).MoveValue();

  std::unique_ptr<ThreadPool> owned;
  for (size_t threads : {1u, 2u, 5u}) {
    forest::ForestConfig fast_config = config;
    fast_config.use_reference_trainer = false;
    fast_config.pool = PoolOfWidth(threads, &owned);
    auto fast = forest::RandomForest::Fit(d, {}, fast_config).MoveValue();
    ASSERT_EQ(fast.num_trees(), reference.num_trees());
    for (size_t t = 0; t < fast.num_trees(); ++t) {
      EXPECT_TRUE(fast.trees()[t].StructurallyEqual(reference.trees()[t]))
          << "threads=" << threads << " tree=" << t;
    }
    auto fast_weighted = forest::RandomForest::Fit(d, weights, fast_config).MoveValue();
    for (size_t t = 0; t < fast_weighted.num_trees(); ++t) {
      EXPECT_TRUE(
          fast_weighted.trees()[t].StructurallyEqual(weighted_reference.trees()[t]))
          << "weighted threads=" << threads << " tree=" << t;
    }
  }
}

TEST(TrainerEquivalenceTest, RealisticDatasetsMatchToo) {
  // Not just adversarial grids: the paper's synthetic stand-ins flow through
  // the same contract (blobs are continuous; ijcnn1-like is imbalanced).
  for (int which : {0, 1}) {
    data::Dataset d = which == 0 ? data::synthetic::MakeBlobs(501, 250, 6, 1.1)
                                 : data::synthetic::MakeIjcnn1Like(502, 250);
    TreeConfig config;
    config.max_leaf_nodes = 24;
    auto fast = DecisionTree::Fit(d, {}, config).MoveValue();
    auto reference = DecisionTree::FitReference(d, {}, config).MoveValue();
    EXPECT_TRUE(fast.StructurallyEqual(reference)) << "dataset " << which;
  }
}

}  // namespace
}  // namespace treewm::tree
