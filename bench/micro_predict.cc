// Micro-benchmarks: inference throughput (single tree, forest majority vote,
// per-tree predict-all as used by black-box verification), including the
// comparison that gates the batched inference engine: on the 32-tree,
// 4000×20 fixture the flat engine is measured against the retained scalar
// reference in the same run (BM_*Flat* / BM_*FloatKey vs BM_*Scalar), both
// serially (pool = nullptr) and fanned out over the global pool.
//
// Machine-readable output convention (see bench/README.md):
//   ./micro_predict --benchmark_out=BENCH_predict.json --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "boosting/gbdt.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "predict/batch_predictor.h"
#include "predict/reference.h"

namespace {

using namespace treewm;

const bench::ForestFixture& CachedFixture(size_t num_trees) {
  return bench::CachedForestFixture(11, 4000, 20, 1.2, num_trees, 3);
}

void BM_TreePredict(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedFixture(8);
  const auto& tree = fx.forest.trees()[0];
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Predict(fx.data.Row(i)));
    i = (i + 1) % fx.data.num_rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreePredict);

void BM_ForestPredict(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedFixture(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.forest.Predict(fx.data.Row(i)));
    i = (i + 1) % fx.data.num_rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForestPredict)->Arg(8)->Arg(32)->Arg(80);

void BM_ForestPredictAll(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedFixture(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    auto votes = fx.forest.PredictAll(fx.data.Row(i));
    benchmark::DoNotOptimize(votes);
    i = (i + 1) % fx.data.num_rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForestPredictAll)->Arg(8)->Arg(32)->Arg(80);

// --- the flat engine vs the retained scalar reference (the acceptance gate) -

void BM_ForestAccuracyScalar(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedFixture(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(predict::reference::Accuracy(fx.forest, fx.data));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.data.num_rows()));
}
BENCHMARK(BM_ForestAccuracyScalar)->Unit(benchmark::kMillisecond);

// Model entry point: lazy shared flat image, global pool — what every
// production call site actually runs.
void BM_ForestAccuracyFlat(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedFixture(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.forest.Accuracy(fx.data));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.data.num_rows()));
}
BENCHMARK(BM_ForestAccuracyFlat)->Unit(benchmark::kMillisecond);

// --- the predict.all votes path --------------------------------------------

void BM_PredictAllBatchScalar(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedFixture(32);
  for (auto _ : state) {
    auto votes = predict::reference::PredictAllBatch(fx.forest, fx.data);
    benchmark::DoNotOptimize(votes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.data.num_rows()));
}
BENCHMARK(BM_PredictAllBatchScalar)->Unit(benchmark::kMillisecond);

// The flat vote-matrix output shape through the model entry point: one
// contiguous allocation for the whole batch.
void BM_PredictAllVotesFlat(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedFixture(32);
  for (auto _ : state) {
    auto votes = fx.forest.PredictAllVotes(fx.data);  // VoteMatrix path
    benchmark::DoNotOptimize(votes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.data.num_rows()));
}
BENCHMARK(BM_PredictAllVotesFlat)->Unit(benchmark::kMillisecond);

// The same votes from a prebuilt predictor (the serving-loop configuration).
void BM_PredictAllVotesFloatKey(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedFixture(32);
  predict::BatchPredictor predictor(
      predict::FlatEnsemble::FromClassificationTrees(fx.forest.trees()));
  for (auto _ : state) {
    auto votes = predictor.PredictAllVotes(fx.data);
    benchmark::DoNotOptimize(votes);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.data.num_rows()));
}
BENCHMARK(BM_PredictAllVotesFloatKey)->Unit(benchmark::kMillisecond);

// --- GBDT regression paths (double leaf values, staged curve) --------------

const boosting::Gbdt& CachedGbdt() {
  static auto* model = [] {
    const bench::ForestFixture& fx = CachedFixture(32);
    boosting::GbdtConfig config;
    config.num_trees = 100;
    return new boosting::Gbdt(boosting::Gbdt::Fit(fx.data, config).MoveValue());
  }();
  return *model;
}

predict::BatchPredictor GbdtPredictor() {
  const boosting::Gbdt& model = CachedGbdt();
  return predict::BatchPredictor(predict::FlatEnsemble::FromRegressionTrees(
      model.trees(), model.initial_score(), model.learning_rate()));
}

void BM_GbdtAccuracyFloatKey(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedFixture(32);
  auto predictor = GbdtPredictor();
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.ScoreAccuracy(fx.data));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.data.num_rows()));
}
BENCHMARK(BM_GbdtAccuracyFloatKey)->Unit(benchmark::kMillisecond);

void BM_GbdtStagedCurveFloatKey(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedFixture(32);
  auto predictor = GbdtPredictor();
  for (auto _ : state) {
    auto curve = predictor.StagedAccuracyCurve(fx.data);
    benchmark::DoNotOptimize(curve);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.data.num_rows()));
}
BENCHMARK(BM_GbdtStagedCurveFloatKey)->Unit(benchmark::kMillisecond);

// --- image construction costs ----------------------------------------------

// Reusing a prebuilt predictor strips the per-call FlatEnsemble rebuild —
// the serving-loop configuration.
void BM_ForestAccuracyFlatPrebuilt(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedFixture(32);
  predict::BatchPredictor predictor(
      predict::FlatEnsemble::FromClassificationTrees(fx.forest.trees()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.LabelAccuracy(fx.data));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.data.num_rows()));
}
BENCHMARK(BM_ForestAccuracyFlatPrebuilt)->Unit(benchmark::kMillisecond);

// The prebuilt predictor on one thread: the serial half of the flat-vs-scalar
// gate, with no pool fan-out in the ratio.
void BM_ForestAccuracyFlatPrebuiltSerial(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedFixture(32);
  predict::BatchPredictor predictor(
      predict::FlatEnsemble::FromClassificationTrees(fx.forest.trees()), /*pool=*/nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.LabelAccuracy(fx.data));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fx.data.num_rows()));
}
BENCHMARK(BM_ForestAccuracyFlatPrebuiltSerial)->Unit(benchmark::kMillisecond);

// Cost of packing the ensemble into the SoA arena (paid once per batch call
// in the model-class entry points).
void BM_FlatEnsembleBuild(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedFixture(32);
  for (auto _ : state) {
    auto flat = predict::FlatEnsemble::FromClassificationTrees(fx.forest.trees());
    benchmark::DoNotOptimize(flat);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatEnsembleBuild);

}  // namespace

BENCHMARK_MAIN();
