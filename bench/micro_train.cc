// Micro-benchmarks: decision tree, random forest and GBDT training
// throughput.
//
// Every trainer runs on the one split engine, the sort-once column-index
// engine (src/tree/sorted_columns.h + trainer_core.h); every benchmark is
// paired with its retained naive reference (`*Reference`, per-node
// re-sorting) measured in the SAME run — the two produce bit-identical
// models by the trainer equivalence contract, so the gap is pure engine.
//
// The pooled forest rows fan their trees out on the process pool, so they
// are timed by wall clock (UseRealTime); BM_ForestFitSerial is the same fit
// on the calling thread alone.
//
// BM_TrainWithTrigger / BM_TrainWithTriggerReference is the trigger search
// gate: Algorithm 1's weight-boosting loop, exact search vs linear loop.
// BM_GridSearch / BM_GridSearchSerial is the grid-search gate: Algorithm 1's
// line 12 on the embed workload's shape, pooled vs serial.
// Reference run committed as bench/BENCH_train.json (see bench/README.md).

#include <benchmark/benchmark.h>

#include <map>
#include <utility>
#include <vector>

#include "boosting/gbdt.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/train_with_trigger.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "forest/grid_search.h"
#include "forest/random_forest.h"
#include "tree/decision_tree.h"
#include "tree/sorted_columns.h"

namespace {

using namespace treewm;

const data::Dataset& CachedBlobs(size_t rows, size_t features) {
  static auto* cache = new std::map<std::pair<size_t, size_t>, data::Dataset>();
  auto key = std::make_pair(rows, features);
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, data::synthetic::MakeBlobs(7, rows, features, 1.2))
             .first;
  }
  return it->second;
}

// ------------------------------------------------------- single trees ----

void BM_TreeFit(benchmark::State& state) {
  const auto& data = CachedBlobs(static_cast<size_t>(state.range(0)),
                                 static_cast<size_t>(state.range(1)));
  tree::TreeConfig config;
  for (auto _ : state) {
    auto tree = tree::DecisionTree::Fit(data, {}, config);
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_TreeFit)
    ->Args({500, 10})
    ->Args({2000, 10})
    ->Args({2000, 50})
    ->Args({8000, 20})
    ->Unit(benchmark::kMillisecond);

void BM_TreeFitReference(benchmark::State& state) {
  const auto& data = CachedBlobs(static_cast<size_t>(state.range(0)),
                                 static_cast<size_t>(state.range(1)));
  tree::TreeConfig config;
  for (auto _ : state) {
    auto tree = tree::DecisionTree::FitReference(data, {}, config);
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_TreeFitReference)
    ->Args({500, 10})
    ->Args({2000, 10})
    ->Args({2000, 50})
    ->Args({8000, 20})
    ->Unit(benchmark::kMillisecond);

// One tree on prebuilt columns: the marginal cost of a tree once the
// dataset-level sort is amortized (the forest / GBDT / TrainWithTrigger
// steady state), vs BM_TreeFit which pays the sort inside the call.
void BM_TreeFitPresortedColumns(benchmark::State& state) {
  const auto& data = CachedBlobs(static_cast<size_t>(state.range(0)),
                                 static_cast<size_t>(state.range(1)));
  const auto sorted = tree::SortedColumns::Build(data, &ThreadPool::Global());
  tree::TreeConfig config;
  for (auto _ : state) {
    auto tree = tree::DecisionTree::Fit(data, {}, config, {}, sorted.get());
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_TreeFitPresortedColumns)
    ->Args({2000, 10})
    ->Args({8000, 20})
    ->Unit(benchmark::kMillisecond);

void BM_SortedColumnsBuild(benchmark::State& state) {
  const auto& data = CachedBlobs(static_cast<size_t>(state.range(0)),
                                 static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    auto sorted = tree::SortedColumns::Build(data, &ThreadPool::Global());
    benchmark::DoNotOptimize(sorted);
  }
}
BENCHMARK(BM_SortedColumnsBuild)
    ->Args({2000, 10})
    ->Args({8000, 20})
    ->Unit(benchmark::kMillisecond);

void BM_TreeFitBestFirst(benchmark::State& state) {
  const auto& data = CachedBlobs(4000, 20);
  tree::TreeConfig config;
  config.max_leaf_nodes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto tree = tree::DecisionTree::Fit(data, {}, config);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_TreeFitBestFirst)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_TreeFitBestFirstReference(benchmark::State& state) {
  const auto& data = CachedBlobs(4000, 20);
  tree::TreeConfig config;
  config.max_leaf_nodes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto tree = tree::DecisionTree::FitReference(data, {}, config);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_TreeFitBestFirstReference)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_TreeFitWeighted(benchmark::State& state) {
  const auto& data = CachedBlobs(4000, 20);
  std::vector<double> weights(data.num_rows(), 1.0);
  for (size_t i = 0; i < weights.size(); i += 50) weights[i] = 20.0;
  tree::TreeConfig config;
  for (auto _ : state) {
    auto tree = tree::DecisionTree::Fit(data, weights, config);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_TreeFitWeighted)->Unit(benchmark::kMillisecond);

void BM_TreeFitWeightedReference(benchmark::State& state) {
  const auto& data = CachedBlobs(4000, 20);
  std::vector<double> weights(data.num_rows(), 1.0);
  for (size_t i = 0; i < weights.size(); i += 50) weights[i] = 20.0;
  tree::TreeConfig config;
  for (auto _ : state) {
    auto tree = tree::DecisionTree::FitReference(data, weights, config);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_TreeFitWeightedReference)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ forests ----

void BM_ForestFit(benchmark::State& state) {
  const auto& data = CachedBlobs(4000, 20);
  forest::ForestConfig config;
  config.num_trees = static_cast<size_t>(state.range(0));
  config.seed = 5;
  for (auto _ : state) {
    auto forest = forest::RandomForest::Fit(data, {}, config);
    benchmark::DoNotOptimize(forest);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ForestFit)
    ->Arg(8)
    ->Arg(32)
    ->Arg(80)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ForestFitReference(benchmark::State& state) {
  const auto& data = CachedBlobs(4000, 20);
  forest::ForestConfig config;
  config.num_trees = static_cast<size_t>(state.range(0));
  config.seed = 5;
  config.use_reference_trainer = true;
  for (auto _ : state) {
    auto forest = forest::RandomForest::Fit(data, {}, config);
    benchmark::DoNotOptimize(forest);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ForestFitReference)
    ->Arg(8)
    ->Arg(32)
    ->Arg(80)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ForestFitSerial(benchmark::State& state) {
  const auto& data = CachedBlobs(4000, 20);
  forest::ForestConfig config;
  config.num_trees = 32;
  config.seed = 5;
  config.pool = nullptr;  // serial end to end: the sort and every tree
  for (auto _ : state) {
    auto forest = forest::RandomForest::Fit(data, {}, config);
    benchmark::DoNotOptimize(forest);
  }
}
BENCHMARK(BM_ForestFitSerial)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------- GBDT ----

void BM_GbdtFit(benchmark::State& state) {
  const auto& data = CachedBlobs(static_cast<size_t>(state.range(0)),
                                 static_cast<size_t>(state.range(1)));
  boosting::GbdtConfig config;
  config.num_trees = static_cast<size_t>(state.range(2));
  for (auto _ : state) {
    auto model = boosting::Gbdt::Fit(data, config);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * state.range(2));
}
BENCHMARK(BM_GbdtFit)
    ->Args({2000, 10, 50})
    ->Args({4000, 20, 50})
    ->Unit(benchmark::kMillisecond);

void BM_GbdtFitReference(benchmark::State& state) {
  const auto& data = CachedBlobs(static_cast<size_t>(state.range(0)),
                                 static_cast<size_t>(state.range(1)));
  boosting::GbdtConfig config;
  config.num_trees = static_cast<size_t>(state.range(2));
  config.use_reference_trainer = true;
  for (auto _ : state) {
    auto model = boosting::Gbdt::Fit(data, config);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * state.range(2));
}
BENCHMARK(BM_GbdtFitReference)
    ->Args({2000, 10, 50})
    ->Args({4000, 20, 50})
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------ trigger-weight search gate ----

// Algorithm 1's T1 loop on one fixed fixture: 8 capacity-limited trees (as
// after Adjust) that must misclassify a 2% trigger set of ijcnn1-like rows.
// The exact fail-first search against the retained linear loop in the same
// run. Both return bit-identical models (tests/test_train_with_trigger.cc),
// so boost_rounds is equal and the gap is the tree fits the search skips.
struct TriggerFixture {
  data::Dataset flipped;
  std::vector<size_t> trigger;
};

const TriggerFixture& CachedTriggerFixture() {
  static const TriggerFixture* fixture = [] {
    data::Dataset data = data::synthetic::MakeIjcnn1Like(47, 1000);
    Rng rng(3);
    std::vector<size_t> trigger = data::SampleTriggerIndices(data, 20, &rng).MoveValue();
    data::Dataset flipped = data;
    for (size_t idx : trigger) flipped.SetLabel(idx, -data.Label(idx));
    return new TriggerFixture{std::move(flipped), std::move(trigger)};
  }();
  return *fixture;
}

using TriggerTrainer = Result<core::TriggerTrainingResult> (*)(
    const data::Dataset&, const std::vector<size_t>&, const core::TriggerTrainingConfig&);

void TriggerSearchBody(benchmark::State& state, TriggerTrainer train) {
  const TriggerFixture& fixture = CachedTriggerFixture();
  core::TriggerTrainingConfig config;
  config.forest.num_trees = 8;
  config.forest.seed = 5;
  config.forest.feature_fraction = 0.4;
  config.forest.tree.max_depth = 8;
  config.forest.tree.max_leaf_nodes = 28;
  for (auto _ : state) {
    auto result = train(fixture.flipped, fixture.trigger, config);
    benchmark::DoNotOptimize(result);
    state.counters["boost_rounds"] = static_cast<double>(result.value().boost_rounds);
    state.counters["tree_fits"] = static_cast<double>(result.value().tree_fits);
  }
}

void BM_TrainWithTrigger(benchmark::State& state) {
  TriggerSearchBody(state, core::TrainWithTrigger);
}
BENCHMARK(BM_TrainWithTrigger)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_TrainWithTriggerReference(benchmark::State& state) {
  TriggerSearchBody(state, core::TrainWithTriggerReference);
}
BENCHMARK(BM_TrainWithTriggerReference)->UseRealTime()->Unit(benchmark::kMillisecond);

// ------------------------------------------------- grid-search gate ----

// Algorithm 1 line 12 on the embed workload's shape: 1000 ijcnn1-like rows,
// depths {8, 12, unlimited}, 3 folds, 16 trees at feature fraction 0.4, so
// 144 tree fits and 9 fold forests scored. Pooled on the process pool vs
// serial (pool = nullptr) in the same run; the table is bit-identical.
void GridSearchBody(benchmark::State& state, ThreadPool* pool) {
  static const data::Dataset* data =
      new data::Dataset(data::synthetic::MakeIjcnn1Like(47, 1000));
  forest::GridSearchConfig config;
  config.max_depth_grid = {8, 12, -1};
  config.num_folds = 3;
  config.forest_template.feature_fraction = 0.4;
  config.forest_template.pool = pool;
  config.seed = 5;
  for (auto _ : state) {
    auto outcome = forest::GridSearch(*data, 16, config);
    benchmark::DoNotOptimize(outcome);
    state.counters["best_accuracy"] = outcome.value().best_accuracy;
  }
}

void BM_GridSearch(benchmark::State& state) {
  GridSearchBody(state, &ThreadPool::Global());
}
BENCHMARK(BM_GridSearch)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_GridSearchSerial(benchmark::State& state) { GridSearchBody(state, nullptr); }
BENCHMARK(BM_GridSearchSerial)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
