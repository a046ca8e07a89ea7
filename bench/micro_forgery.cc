// Micro-benchmarks: forgery-query latency as a function of ensemble size and
// distortion budget (the quantity behind Figure 4's feasibility results),
// plus the multi-anchor solve engine: the scalar per-anchor loop (which
// recompiles the requirement arena for every anchor) against one SolveBatch
// call (arena compiled once, watched-option search, pool fan-out), and the
// compiled-vs-rebuilt arena split. The search rows also run on the forge
// workload's model shape, where each feature has hundreds of watchers.
// Reference numbers are committed as bench/BENCH_forgery.json (see
// bench/README.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <span>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "core/signature.h"
#include "smt/cnf_encoder.h"
#include "smt/compiled_requirements.h"
#include "smt/forgery_solver.h"

namespace {

using namespace treewm;

// The shared breast-cancer-like model fixture (seeds match the pre-dedup
// private cache so the BM_ForgeryBoxSolver trajectory stays comparable).
const bench::ForestFixture& CachedModel(size_t num_trees) {
  return bench::CachedNamedForestFixture("breast-cancer", /*data_seed=*/19,
                                         /*rows=*/0, num_trees,
                                         /*forest_seed=*/23);
}

// The forge workload's model shape (e2e_bench/forge.cc): ijcnn1-like rows
// (22 features) and 32 unlimited-depth trees on 40% feature subsets.
const bench::ForestFixture& ForgeModel(size_t num_trees) {
  static auto* cache = new std::map<size_t, bench::ForestFixture>();
  auto it = cache->find(num_trees);
  if (it == cache->end()) {
    auto data = data::synthetic::MakeIjcnn1Like(/*seed=*/47, /*num_rows=*/2800);
    forest::ForestConfig config;
    config.num_trees = num_trees;
    config.feature_fraction = 0.4;
    config.seed = 11;
    auto forest = forest::RandomForest::Fit(data, {}, config).MoveValue();
    it = cache->emplace(num_trees, bench::ForestFixture{std::move(data), std::move(forest)})
             .first;
  }
  return it->second;
}

using ModelFn = const bench::ForestFixture& (*)(size_t num_trees);

/// Median over features of the options that constrain the feature: the
/// length of the watch list a tightening used to rescan.
double MedianWatchersPerFeature(const smt::CompiledRequirements& arena) {
  std::vector<double> watchers(arena.num_features(), 0.0);
  for (int32_t f : arena.constraint_feature()) ++watchers[static_cast<size_t>(f)];
  std::sort(watchers.begin(), watchers.end());
  return watchers[watchers.size() / 2];
}

smt::ForgeryQuery MakeQuery(const bench::ForestFixture& fx, size_t num_trees,
                            double epsilon, uint64_t seed) {
  Rng rng(seed);
  auto fake = core::Signature::Random(num_trees, 0.5, &rng);
  smt::ForgeryQuery query;
  query.signature_bits = fake.bits();
  query.target_label = +1;
  const size_t row = rng.UniformInt(fx.data.num_rows());
  query.anchor.assign(fx.data.Row(row).begin(), fx.data.Row(row).end());
  query.epsilon = epsilon;
  query.max_nodes = 500000;
  return query;
}

void BM_ForgeryBoxSolver(benchmark::State& state) {
  const size_t num_trees = static_cast<size_t>(state.range(0));
  const double epsilon = static_cast<double>(state.range(1)) / 100.0;
  const bench::ForestFixture& fx = CachedModel(num_trees);
  uint64_t seed = 1;
  for (auto _ : state) {
    auto query = MakeQuery(fx, num_trees, epsilon, seed++);
    auto outcome = smt::ForgerySolver::Solve(fx.forest, query);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ForgeryBoxSolver)
    ->Args({8, 30})
    ->Args({32, 30})
    ->Args({64, 30})
    ->Args({32, 10})
    ->Args({32, 70})
    ->Unit(benchmark::kMicrosecond);

void BM_ForgeryCnfBackend(benchmark::State& state) {
  const size_t num_trees = static_cast<size_t>(state.range(0));
  const bench::ForestFixture& fx = CachedModel(num_trees);
  uint64_t seed = 1;
  sat::SolveBudget budget;
  budget.max_conflicts = 100000;
  for (auto _ : state) {
    auto query = MakeQuery(fx, num_trees, 0.3, seed++);
    auto outcome = smt::CnfForgeryBackend::Solve(fx.forest, query, budget);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ForgeryCnfBackend)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

// One ForEachLeaf walk over each of 32 trees, the walk a compile makes; the
// visitor only counts the constraints it is handed.
void BM_LeafExtraction(benchmark::State& state, ModelFn model) {
  const bench::ForestFixture& fx = model(32);
  for (auto _ : state) {
    size_t constraints = 0;
    for (const auto& t : fx.forest.trees()) {
      t.ForEachLeaf(
          [&](int, int, std::span<const tree::DecisionTree::PathConstraint> box) {
            constraints += box.size();
          });
    }
    benchmark::DoNotOptimize(constraints);
  }
}
BENCHMARK_CAPTURE(BM_LeafExtraction, breast_cancer, CachedModel)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_LeafExtraction, forge, ForgeModel)->Unit(benchmark::kMicrosecond);

// --- the multi-anchor solve engine -----------------------------------------
//
// The forgery attack solves one query per test anchor against the same
// (forest, σ'). The scalar loop below is what RunForgeryAttack used to do:
// per anchor, rebuild the requirement structure and search. The batched pair
// solves the same anchor block through ForgerySolver::SolveBatch — one
// CompiledRequirements arena per label for the whole block, watched-option
// search, batched end validation. Same verdicts (property-tested in
// tests/test_forgery_batch.cc); the delta is pure engine.

constexpr size_t kAnchorCount = 48;
constexpr double kAnchorEpsilon = 0.3;
constexpr uint64_t kAnchorBudget = 500000;

const std::vector<uint8_t>& FixedFakeBits(size_t num_trees) {
  static auto* cache = new std::map<size_t, std::vector<uint8_t>>();
  auto it = cache->find(num_trees);
  if (it == cache->end()) {
    Rng rng(77);
    it = cache->emplace(num_trees, core::Signature::Random(num_trees, 0.5, &rng).bits())
             .first;
  }
  return it->second;
}

data::Dataset AnchorBlock(const bench::ForestFixture& fx, size_t count) {
  std::vector<size_t> indices(count);
  for (size_t i = 0; i < count; ++i) indices[i] = i % fx.data.num_rows();
  return fx.data.Subset(indices);
}

void BM_ForgeryAnchorsScalarLoop(benchmark::State& state) {
  const size_t num_trees = static_cast<size_t>(state.range(0));
  const bench::ForestFixture& fx = CachedModel(num_trees);
  const data::Dataset anchors = AnchorBlock(fx, kAnchorCount);
  const std::vector<uint8_t>& bits = FixedFakeBits(num_trees);
  for (auto _ : state) {
    size_t sat = 0;
    for (size_t i = 0; i < anchors.num_rows(); ++i) {
      smt::ForgeryQuery query;
      query.signature_bits = bits;
      query.target_label = anchors.Label(i);
      query.anchor.assign(anchors.Row(i).begin(), anchors.Row(i).end());
      query.epsilon = kAnchorEpsilon;
      query.max_nodes = kAnchorBudget;
      auto outcome = smt::ForgerySolver::Solve(fx.forest, query).MoveValue();
      if (outcome.result == sat::SatResult::kSat) ++sat;
    }
    benchmark::DoNotOptimize(sat);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kAnchorCount));
}
BENCHMARK(BM_ForgeryAnchorsScalarLoop)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

void SolveBatchBody(benchmark::State& state, ModelFn model, ThreadPool* pool) {
  const size_t num_trees = static_cast<size_t>(state.range(0));
  const bench::ForestFixture& fx = model(num_trees);
  const data::Dataset anchors = AnchorBlock(fx, kAnchorCount);
  smt::ForgeryBatchQuery shared;
  shared.signature_bits = FixedFakeBits(num_trees);
  shared.epsilon = kAnchorEpsilon;
  shared.max_nodes_per_anchor = kAnchorBudget;
  shared.pool = pool;
  for (auto _ : state) {
    auto outcomes =
        smt::ForgerySolver::SolveBatch(fx.forest, shared, anchors).MoveValue();
    benchmark::DoNotOptimize(outcomes);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kAnchorCount));
}

// Anchors fan out on the process pool, so the row is timed by wall clock:
// the main thread's CPU time would leave out the workers' share.
void BM_ForgeryAnchorsSolveBatch(benchmark::State& state) {
  SolveBatchBody(state, CachedModel, &ThreadPool::Global());
}
BENCHMARK(BM_ForgeryAnchorsSolveBatch)
    ->Arg(8)
    ->Arg(32)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same batch on the calling thread: against the scalar loop it isolates
// the arena amortization; against the pooled row, the fan-out. Each row
// reports its +1 arena's median watchers per feature.
void BM_ForgeryAnchorsSolveBatchSerial(benchmark::State& state, ModelFn model) {
  SolveBatchBody(state, model, nullptr);
  const size_t num_trees = static_cast<size_t>(state.range(0));
  state.counters["watchers_per_feature"] = MedianWatchersPerFeature(
      *smt::CompiledRequirements::Compile(model(num_trees).forest,
                                          FixedFakeBits(num_trees), +1)
           .MoveValue());
}
BENCHMARK_CAPTURE(BM_ForgeryAnchorsSolveBatchSerial, breast_cancer, CachedModel)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ForgeryAnchorsSolveBatchSerial, forge, ForgeModel)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// --- compiled vs rebuilt requirement arena ---------------------------------

void BM_CompiledRequirementsBuild(benchmark::State& state, ModelFn model) {
  const size_t num_trees = static_cast<size_t>(state.range(0));
  const bench::ForestFixture& fx = model(num_trees);
  const std::vector<uint8_t>& bits = FixedFakeBits(num_trees);
  for (auto _ : state) {
    auto arena = smt::CompiledRequirements::Compile(fx.forest, bits, +1);
    benchmark::DoNotOptimize(arena);
  }
}
BENCHMARK_CAPTURE(BM_CompiledRequirementsBuild, breast_cancer, CachedModel)
    ->Arg(8)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_CompiledRequirementsBuild, forge, ForgeModel)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

void BM_ForgerySolveRebuilt(benchmark::State& state) {
  const bench::ForestFixture& fx = CachedModel(32);
  uint64_t seed = 1;
  for (auto _ : state) {
    auto query = MakeQuery(fx, 32, kAnchorEpsilon, seed++);
    auto outcome = smt::ForgerySolver::Solve(fx.forest, query);
    benchmark::DoNotOptimize(outcome);
  }
}
BENCHMARK(BM_ForgerySolveRebuilt)->Unit(benchmark::kMicrosecond);

void BM_ForgerySolvePrecompiled(benchmark::State& state, ModelFn model) {
  const bench::ForestFixture& fx = model(32);
  // MakeQuery draws a fresh signature per seed; pre-compile the arenas the
  // queries will use so only the search is measured.
  uint64_t seed = 1;
  std::map<uint64_t, std::shared_ptr<const smt::CompiledRequirements>> arenas;
  for (uint64_t s = 1; s <= 64; ++s) {
    auto query = MakeQuery(fx, 32, kAnchorEpsilon, s);
    arenas[s] = smt::CompiledRequirements::Compile(fx.forest, query.signature_bits,
                                                   query.target_label)
                    .MoveValue();
  }
  for (auto _ : state) {
    auto query = MakeQuery(fx, 32, kAnchorEpsilon, seed);
    auto outcome =
        smt::ForgerySolver::Solve(fx.forest, *arenas[seed], query);
    benchmark::DoNotOptimize(outcome);
    seed = seed % 64 + 1;
  }
  state.counters["watchers_per_feature"] = MedianWatchersPerFeature(*arenas[1]);
}
BENCHMARK_CAPTURE(BM_ForgerySolvePrecompiled, breast_cancer, CachedModel)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ForgerySolvePrecompiled, forge, ForgeModel)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
