// Unit tests for grid search with stratified CV.

#include "forest/grid_search.h"

#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "common/fault_injection.h"
#include "data/synthetic.h"
#include "pool_of_width.h"

namespace treewm::forest {
namespace {

TEST(StratifiedFoldsTest, EveryRowGetsAFold) {
  auto d = data::synthetic::MakeBlobs(1, 100, 4, 1.0, 0.3);
  Rng rng(2);
  auto folds = StratifiedFolds(d, 4, &rng);
  ASSERT_TRUE(folds.ok());
  ASSERT_EQ(folds.value().size(), 100u);
  for (size_t f : folds.value()) EXPECT_LT(f, 4u);
}

TEST(StratifiedFoldsTest, FoldsAreClassBalanced) {
  auto d = data::synthetic::MakeBlobs(2, 400, 4, 1.0, 0.25);
  Rng rng(3);
  auto folds = StratifiedFolds(d, 4, &rng).MoveValue();
  for (size_t fold = 0; fold < 4; ++fold) {
    size_t pos = 0;
    size_t total = 0;
    for (size_t i = 0; i < d.num_rows(); ++i) {
      if (folds[i] != fold) continue;
      ++total;
      if (d.Label(i) == data::kPositive) ++pos;
    }
    EXPECT_NEAR(static_cast<double>(total), 100.0, 2.0);
    EXPECT_NEAR(static_cast<double>(pos) / static_cast<double>(total), 0.25, 0.02);
  }
}

TEST(StratifiedFoldsTest, RejectsDegenerateRequests) {
  auto d = data::synthetic::MakeBlobs(3, 10, 2, 1.0);
  Rng rng(4);
  EXPECT_FALSE(StratifiedFolds(d, 1, &rng).ok());
  EXPECT_FALSE(StratifiedFolds(d, 11, &rng).ok());
}

TEST(StratifiedFoldsTest, RejectsFoldsTheLargerClassCannotFill) {
  // Each class is dealt from fold 0: with 2 positives and 3 negatives, folds
  // 3 and 4 of 5 would be empty, and an empty validation fold would be
  // averaged into the CV accuracy as 0.
  data::Dataset d(1);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(d.AddRow(std::vector<float>{static_cast<float>(i)},
                         i < 2 ? data::kPositive : data::kNegative)
                    .ok());
  }
  Rng rng(5);
  for (size_t folds : {4u, 5u}) {
    EXPECT_EQ(StratifiedFolds(d, folds, &rng).status().code(),
              StatusCode::kInvalidArgument)
        << folds << " folds";
  }
  GridSearchConfig config;
  config.num_folds = 5;
  config.forest_template.pool = nullptr;
  EXPECT_EQ(GridSearch(d, 3, config).status().code(), StatusCode::kInvalidArgument);

  // Three folds: every fold holds a negative.
  const std::vector<size_t> fold_of = StratifiedFolds(d, 3, &rng).MoveValue();
  std::set<size_t> used(fold_of.begin(), fold_of.end());
  EXPECT_EQ(used.size(), 3u);
}

TEST(GridSearchTest, EvaluatesWholeGrid) {
  auto d = data::synthetic::MakeBlobs(4, 300, 5, 2.0);
  GridSearchConfig config;
  config.max_depth_grid = {2, 4, -1};
  config.max_leaf_nodes_grid = {8, -1};
  config.num_folds = 3;
  auto outcome = GridSearch(d, 7, config);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.value().evaluated.size(), 6u);
  EXPECT_GT(outcome.value().best_accuracy, 0.9);
}

TEST(GridSearchTest, BestIsArgmaxOfEvaluated) {
  auto d = data::synthetic::MakeBlobs(5, 250, 4, 1.0);
  GridSearchConfig config;
  config.max_depth_grid = {1, 3, -1};
  auto outcome = GridSearch(d, 5, config).MoveValue();
  double best = 0.0;
  for (const auto& point : outcome.evaluated) best = std::max(best, point.cv_accuracy);
  EXPECT_DOUBLE_EQ(outcome.best_accuracy, best);
}

TEST(GridSearchTest, DeepTreesWinOnXor) {
  // XOR cannot be solved at depth 1, so the search must not pick it.
  auto d = data::synthetic::MakeXor(6, 600, 4);
  GridSearchConfig config;
  config.max_depth_grid = {1, -1};
  auto outcome = GridSearch(d, 5, config).MoveValue();
  EXPECT_EQ(outcome.best.max_depth, -1);
}

TEST(GridSearchTest, AccuracyTableIsThreadCountInvariant) {
  // Points draw their seeds in grid order, every fit writes its own slot
  // and fold accuracies are summed in fold order: the evaluated table, best
  // config and best accuracy must be bit-identical on every pool.
  auto d = data::synthetic::MakeBlobs(8, 240, 5, 1.2);
  GridSearchConfig config;
  config.max_depth_grid = {2, 4, -1};
  config.max_leaf_nodes_grid = {6, -1};
  config.num_folds = 3;
  config.forest_template.pool = nullptr;
  auto serial = GridSearch(d, 5, config).MoveValue();
  ASSERT_EQ(serial.evaluated.size(), 6u);
  std::unique_ptr<ThreadPool> owned;
  for (size_t threads : {2u, 3u, 4u, 0u}) {  // 0 = process-global pool
    config.forest_template.pool = PoolOfWidth(threads, &owned);
    auto parallel = GridSearch(d, 5, config).MoveValue();
    ASSERT_EQ(parallel.evaluated.size(), serial.evaluated.size());
    for (size_t p = 0; p < serial.evaluated.size(); ++p) {
      EXPECT_EQ(parallel.evaluated[p].config.max_depth,
                serial.evaluated[p].config.max_depth);
      EXPECT_EQ(parallel.evaluated[p].config.max_leaf_nodes,
                serial.evaluated[p].config.max_leaf_nodes);
      // Bit equality, not NEAR: same forests, same fold sums, same order.
      EXPECT_EQ(parallel.evaluated[p].cv_accuracy, serial.evaluated[p].cv_accuracy)
          << "threads=" << threads << " point=" << p;
    }
    EXPECT_EQ(parallel.best_accuracy, serial.best_accuracy);
    EXPECT_EQ(parallel.best.max_depth, serial.best.max_depth);
    EXPECT_EQ(parallel.best.max_leaf_nodes, serial.best.max_leaf_nodes);
  }
}

TEST(GridSearchTest, RejectedSubmitFallsBackInlineWithIdenticalResults) {
  // When the pool refuses work (e.g. shutdown racing a search, simulated
  // here by arming the Submit fault site), ParallelFor runs the rejected
  // tree fits and scoring blocks inline on the caller. That degraded path
  // must produce the SAME accuracy table bit-for-bit — every fit and every
  // block writes its own slot, so where it executes cannot matter.
  auto d = data::synthetic::MakeBlobs(8, 240, 5, 1.2);
  GridSearchConfig config;
  config.max_depth_grid = {2, 4, -1};
  config.max_leaf_nodes_grid = {6, -1};
  config.num_folds = 3;
  config.forest_template.pool = nullptr;
  auto serial = GridSearch(d, 5, config).MoveValue();
  ASSERT_EQ(serial.evaluated.size(), 6u);

  ThreadPool four(4);
  ScopedFault fault("thread_pool.submit.reject", FaultSpec{});
  config.forest_template.pool = &four;
  auto degraded = GridSearch(d, 5, config).MoveValue();
  EXPECT_GT(fault.fires(), 0u);  // the rejection path actually ran
  ASSERT_EQ(degraded.evaluated.size(), serial.evaluated.size());
  for (size_t p = 0; p < serial.evaluated.size(); ++p) {
    EXPECT_EQ(degraded.evaluated[p].config.max_depth,
              serial.evaluated[p].config.max_depth);
    EXPECT_EQ(degraded.evaluated[p].config.max_leaf_nodes,
              serial.evaluated[p].config.max_leaf_nodes);
    EXPECT_EQ(degraded.evaluated[p].cv_accuracy, serial.evaluated[p].cv_accuracy)
        << "point=" << p;
  }
  EXPECT_EQ(degraded.best_accuracy, serial.best_accuracy);
  EXPECT_EQ(degraded.best.max_depth, serial.best.max_depth);
  EXPECT_EQ(degraded.best.max_leaf_nodes, serial.best.max_leaf_nodes);
}

TEST(GridSearchTest, OutcomeMatchesGoldenValues) {
  // The sweeps above compare the search against itself; a change that
  // reordered the seed draws would still pass them. These values were
  // captured from the search that fanned grid points out over the pool,
  // before points ran in grid order, and must match exactly.
  auto d = data::synthetic::MakeBlobs(8, 240, 5, 1.2);
  GridSearchConfig config;
  config.max_depth_grid = {2, 4, -1};
  config.max_leaf_nodes_grid = {6, -1};
  config.num_folds = 3;
  const struct {
    int max_depth;
    int max_leaf_nodes;
    double cv_accuracy;
  } kGolden[] = {
      {2, 6, 0x1.bddddddddddddp-1},    // 0.870833…
      {2, -1, 0x1.acccccccccccdp-1},   // 0.8375
      {4, 6, 0x1.aeeeeeeeeeeefp-1},    // 0.841666…
      {4, -1, 0x1.b999999999999p-1},   // 0.8625
      {-1, 6, 0x1.9555555555555p-1},   // 0.791666…
      {-1, -1, 0x1.aeeeeeeeeeeefp-1},  // 0.841666…
  };
  ThreadPool three(3);
  for (ThreadPool* pool :
       {static_cast<ThreadPool*>(nullptr), &ThreadPool::Global(), &three}) {
    config.forest_template.pool = pool;
    const GridSearchOutcome outcome = GridSearch(d, 5, config).MoveValue();
    ASSERT_EQ(outcome.evaluated.size(), std::size(kGolden));
    for (size_t p = 0; p < outcome.evaluated.size(); ++p) {
      EXPECT_EQ(outcome.evaluated[p].config.max_depth, kGolden[p].max_depth);
      EXPECT_EQ(outcome.evaluated[p].config.max_leaf_nodes, kGolden[p].max_leaf_nodes);
      EXPECT_EQ(outcome.evaluated[p].cv_accuracy, kGolden[p].cv_accuracy)
          << "point " << p << (pool == nullptr ? " serial" : " pooled");
    }
    EXPECT_EQ(outcome.best.max_depth, 2);
    EXPECT_EQ(outcome.best.max_leaf_nodes, 6);
    EXPECT_EQ(outcome.best_accuracy, 0x1.bddddddddddddp-1);
  }
}

TEST(GridSearchTest, RejectsEmptyGrid) {
  auto d = data::synthetic::MakeBlobs(7, 50, 3, 1.0);
  GridSearchConfig config;
  config.max_depth_grid = {};
  EXPECT_FALSE(GridSearch(d, 3, config).ok());
}

}  // namespace
}  // namespace treewm::forest
