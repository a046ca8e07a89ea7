// Micro-benchmarks: decision tree, random forest and GBDT training
// throughput.
//
// Since PR 5 the trainers run on the sort-once column-index engine
// (src/tree/sorted_columns.h + trainer_core.h); every engine benchmark is
// paired with its retained naive reference (`*Reference`, per-node
// re-sorting) measured in the SAME run — the two produce bit-identical
// models by the trainer equivalence contract, so the gap is pure engine.
//
// The BM_Million* family is the histogram trainer gate (PR 8): the exact
// engine vs the opt-in binned-gradient engine on a ONE-MILLION-row fixture,
// paired in the same run for tree, forest and GBDT, with held-out accuracy
// reported as counters so the speedup is visibly not bought with accuracy.
//
// BM_TrainWithTrigger / BM_TrainWithTriggerReference is the trigger search
// gate: Algorithm 1's weight-boosting loop, exact search vs linear loop.
// Reference run committed as bench/BENCH_train.json (see bench/README.md).

#include <benchmark/benchmark.h>

#include <map>
#include <utility>
#include <vector>

#include "boosting/gbdt.h"
#include "common/rng.h"
#include "core/train_with_trigger.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "tree/binned_columns.h"
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
  const auto sorted = tree::SortedColumns::Build(data);
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
    auto sorted = tree::SortedColumns::Build(data);
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
BENCHMARK(BM_ForestFit)->Arg(8)->Arg(32)->Arg(80)->Unit(benchmark::kMillisecond);

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
    ->Unit(benchmark::kMillisecond);

void BM_ForestFitSerial(benchmark::State& state) {
  const auto& data = CachedBlobs(4000, 20);
  forest::ForestConfig config;
  config.num_trees = 32;
  config.seed = 5;
  config.num_threads = 1;
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

// ------------------------------------------- million-row histogram gate ----

constexpr size_t kMillionRows = 1'000'000;
constexpr size_t kMillionFeatures = 16;

// Built once via the chunked fast path (bitwise-identical to MakeBlobs,
// regression-tested) and shared by every BM_Million* benchmark.
const data::Dataset& MillionBlobs() {
  static const data::Dataset* data = new data::Dataset(
      data::synthetic::MakeBlobsChunked(77, kMillionRows, kMillionFeatures, 1.2));
  return *data;
}

const data::Dataset& MillionHoldout() {
  static const data::Dataset* data = new data::Dataset(
      data::synthetic::MakeBlobsChunked(78, 50'000, kMillionFeatures, 1.2));
  return *data;
}

tree::TreeConfig MillionTreeConfig(tree::TrainerMode mode) {
  tree::TreeConfig config;
  config.max_depth = 10;
  config.min_samples_leaf = 20;
  config.trainer_mode = mode;
  return config;
}

void BM_MillionSortedColumnsBuild(benchmark::State& state) {
  const auto& data = MillionBlobs();
  for (auto _ : state) {
    auto sorted = tree::SortedColumns::Build(data);
    benchmark::DoNotOptimize(sorted);
  }
}
BENCHMARK(BM_MillionSortedColumnsBuild)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_MillionBinnedColumnsBuild(benchmark::State& state) {
  const auto& data = MillionBlobs();
  for (auto _ : state) {
    auto binned = tree::BinnedColumns::Build(data);
    benchmark::DoNotOptimize(binned);
  }
}
BENCHMARK(BM_MillionBinnedColumnsBuild)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_MillionTreeFitExact(benchmark::State& state) {
  const auto& data = MillionBlobs();
  auto config = MillionTreeConfig(tree::TrainerMode::kExact);
  for (auto _ : state) {
    auto fitted = tree::DecisionTree::Fit(data, {}, config);
    benchmark::DoNotOptimize(fitted);
    state.counters["holdout_accuracy"] = fitted.value().Accuracy(MillionHoldout());
  }
}
BENCHMARK(BM_MillionTreeFitExact)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_MillionTreeFitHistogram(benchmark::State& state) {
  const auto& data = MillionBlobs();
  auto config = MillionTreeConfig(tree::TrainerMode::kHistogram);
  for (auto _ : state) {
    auto fitted = tree::DecisionTree::Fit(data, {}, config);
    benchmark::DoNotOptimize(fitted);
    state.counters["holdout_accuracy"] = fitted.value().Accuracy(MillionHoldout());
  }
}
BENCHMARK(BM_MillionTreeFitHistogram)->Iterations(1)->Unit(benchmark::kMillisecond);

void MillionForestBody(benchmark::State& state, tree::TrainerMode mode) {
  const auto& data = MillionBlobs();
  forest::ForestConfig config;
  config.num_trees = 4;
  config.seed = 5;
  config.num_threads = 1;
  config.tree = MillionTreeConfig(mode);
  for (auto _ : state) {
    auto fitted = forest::RandomForest::Fit(data, {}, config);
    benchmark::DoNotOptimize(fitted);
    state.counters["holdout_accuracy"] = fitted.value().Accuracy(MillionHoldout());
  }
}

void BM_MillionForestFitExact(benchmark::State& state) {
  MillionForestBody(state, tree::TrainerMode::kExact);
}
BENCHMARK(BM_MillionForestFitExact)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_MillionForestFitHistogram(benchmark::State& state) {
  MillionForestBody(state, tree::TrainerMode::kHistogram);
}
BENCHMARK(BM_MillionForestFitHistogram)->Iterations(1)->Unit(benchmark::kMillisecond);

// GBDT is where the bin-once multiplier pays: one binning pass serves every
// boosting round, and each round's split search is O(bins), not O(rows).
void MillionGbdtBody(benchmark::State& state, tree::TrainerMode mode) {
  const auto& data = MillionBlobs();
  boosting::GbdtConfig config;
  config.num_trees = 10;
  config.tree.max_depth = 8;
  config.tree.min_samples_leaf = 20;
  config.tree.trainer_mode = mode;
  for (auto _ : state) {
    auto fitted = boosting::Gbdt::Fit(data, config);
    benchmark::DoNotOptimize(fitted);
    state.counters["holdout_accuracy"] = fitted.value().Accuracy(MillionHoldout());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(config.num_trees));
}

void BM_MillionGbdtFitExact(benchmark::State& state) {
  MillionGbdtBody(state, tree::TrainerMode::kExact);
}
BENCHMARK(BM_MillionGbdtFitExact)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_MillionGbdtFitHistogram(benchmark::State& state) {
  MillionGbdtBody(state, tree::TrainerMode::kHistogram);
}
BENCHMARK(BM_MillionGbdtFitHistogram)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
