// Tests for the multi-model registry: lifecycle state machine, typed
// refusals, atomic hot reload under live traffic (completed responses
// bit-identical to exactly one of the two images, zero drops, zero spurious
// refusals), the per-model reload circuit breaker, bulkhead overload
// isolation, snapshot cold-start, and the chaos matrix — concurrent
// reloads × unloads × mixed-model traffic × fault schedules, with the
// registry-wide accounting identity closing exactly.

#include "serve/registry/model_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "io/ensemble_snapshot.h"
#include "predict/flat_ensemble.h"

namespace treewm::serve {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

constexpr size_t kFeatures = 6;

std::shared_ptr<const predict::FlatEnsemble> MakeImage(uint64_t seed,
                                                       size_t num_trees = 7) {
  auto d = data::synthetic::MakeBlobs(seed, 240, kFeatures, 1.5);
  forest::ForestConfig config;
  config.num_trees = num_trees;
  config.seed = seed;
  auto forest = forest::RandomForest::Fit(d, {}, config).MoveValue();
  return std::make_shared<predict::FlatEnsemble>(
      predict::FlatEnsemble::FromClassificationTrees(forest.trees()));
}

ModelRegistryOptions SmallOptions(size_t max_models = 8,
                                  size_t breaker_threshold = 3,
                                  bool start_dispatcher = true,
                                  size_t queue_capacity = 1024) {
  ModelRegistryOptions options;
  options.max_models = max_models;
  options.reload_breaker_threshold = breaker_threshold;
  options.serving.queue.capacity = queue_capacity;
  options.serving.queue.max_batch_rows = 16;
  options.serving.queue.max_batch_delay = microseconds(100);
  options.serving.start_dispatcher = start_dispatcher;
  return options;
}

std::unique_ptr<ModelRegistry> MakeRegistry(
    ModelRegistryOptions options = SmallOptions()) {
  return ModelRegistry::Create(std::move(options)).MoveValue();
}

std::vector<float> Probe(uint64_t salt) {
  std::vector<float> x(kFeatures);
  Rng rng(salt);
  for (auto& v : x) v = static_cast<float>(rng.UniformRealRange(-2.0, 2.0));
  return x;
}

/// Reference answers computed through a private single-model registry, so
/// chaos results can be compared bit-for-bit against "what this image says".
std::vector<PredictResult> ReferenceAnswers(
    const std::shared_ptr<const predict::FlatEnsemble>& image,
    size_t num_probes) {
  auto registry = MakeRegistry();
  EXPECT_TRUE(registry->Load("ref", image).ok());
  std::vector<PredictResult> out;
  for (size_t i = 0; i < num_probes; ++i) {
    auto result = registry->Predict("ref", Probe(i));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.push_back(std::move(result).MoveValue());
  }
  return out;
}

/// The callback API's immediate-refusal contract: `done` runs exactly once,
/// before Submit returns. Returns the refusal's code.
StatusCode SubmitRefusedInline(ModelRegistry* registry, const std::string& id,
                               std::span<const float> x) {
  struct Seen {
    int calls = 0;
    StatusCode code = StatusCode::kOk;
  };
  auto seen = std::make_shared<Seen>();
  registry->Submit(id, x, {}, [seen](Result<PredictResult> result) {
    ++seen->calls;
    seen->code = result.status().code();
  });
  EXPECT_EQ(seen->calls, 1);
  return seen->code;
}

bool SameResult(const PredictResult& a, const PredictResult& b) {
  return a.label == b.label && a.votes == b.votes;
}

/// The registry-wide exactly-once identity (see model_registry.h): every
/// SubmitPredict call is accounted to exactly one bucket, and every
/// admitted request was answered by the time the registry drained.
void ExpectAccountingCloses(const RegistryStats& stats) {
  EXPECT_EQ(stats.submitted,
            stats.serving.submitted + stats.refused_unknown_model +
                stats.refused_not_serving);
  EXPECT_EQ(stats.serving.submitted,
            stats.serving.admitted + stats.serving.rejected_full +
                stats.serving.rejected_shed + stats.serving.rejected_shutdown +
                stats.serving.rejected_invalid);
  EXPECT_EQ(stats.serving.admitted,
            stats.serving.completed_ok + stats.serving.expired_dispatch +
                stats.serving.expired_completion);
}

// ---------------------------------------------------------------------------
// Lifecycle + typed refusals

TEST(RegistryLifecycleTest, LoadServePredictUnload) {
  auto registry = MakeRegistry();
  auto image = MakeImage(1);
  ASSERT_TRUE(registry->Load("alpha", image).ok());

  auto info = registry->Info("alpha");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().state, ModelState::kServing);
  EXPECT_EQ(info.value().checksum, io::EnsembleChecksum(*image));
  EXPECT_FALSE(info.value().breaker_open);

  const auto reference = ReferenceAnswers(image, 4);
  for (size_t i = 0; i < reference.size(); ++i) {
    auto result = registry->Predict("alpha", Probe(i));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(SameResult(result.value(), reference[i]));
  }

  ASSERT_TRUE(registry->Unload("alpha").ok());
  EXPECT_EQ(registry->Info("alpha").status().code(), StatusCode::kNotFound);
  const RegistryStats stats = registry->stats();
  EXPECT_EQ(stats.loads_ok, 1u);
  EXPECT_EQ(stats.unloads, 1u);
  EXPECT_EQ(stats.serving.completed_ok, 4u);
  ExpectAccountingCloses(stats);
}

TEST(RegistryLifecycleTest, TypedRefusalsForEveryWrongCall) {
  auto registry = MakeRegistry(SmallOptions(/*max_models=*/1));
  ASSERT_TRUE(registry->Load("only", MakeImage(2)).ok());

  EXPECT_EQ(registry->Load("only", MakeImage(3)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(registry->Load("overflow", MakeImage(3)).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(registry->Unload("ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(registry->Reload("ghost", MakeImage(3)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(registry->Load("", MakeImage(3)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry->Load(std::string(300, 'x'), MakeImage(3)).code(),
            StatusCode::kInvalidArgument);

  auto unknown = registry->Predict("ghost", Probe(0));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(SubmitRefusedInline(registry.get(), "ghost", Probe(0)),
            StatusCode::kNotFound);
  // A request the model's own front-end refuses (wrong feature count)
  // comes back inline through the registry too.
  EXPECT_EQ(SubmitRefusedInline(registry.get(), "only",
                                std::vector<float>(kFeatures + 1, 0.0f)),
            StatusCode::kInvalidArgument);
  registry->Shutdown();
  // After Shutdown every id is unknown.
  EXPECT_EQ(SubmitRefusedInline(registry.get(), "only", Probe(0)),
            StatusCode::kNotFound);
  const RegistryStats stats = registry->stats();
  EXPECT_EQ(stats.refused_unknown_model, 3u);
  EXPECT_EQ(stats.serving.rejected_invalid, 1u);
  ExpectAccountingCloses(stats);
}

TEST(RegistryLifecycleTest, FailedLoadLeavesTypedFailedEntryAndRecovers) {
  auto registry = MakeRegistry();
  {
    ScopedFault fault("serve.registry.load.fail", {});
    const Status failed = registry->Load("broken", MakeImage(4));
    ASSERT_FALSE(failed.ok());
  }
  // The entry exists, FAILED, with the typed cause — never half-serving.
  auto info = registry->Info("broken");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().state, ModelState::kFailed);
  EXPECT_FALSE(info.value().last_error.ok());

  auto refused = registry->Predict("broken", Probe(0));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(SubmitRefusedInline(registry.get(), "broken", Probe(0)),
            StatusCode::kFailedPrecondition);
  // The id is held until the operator unloads it.
  EXPECT_EQ(registry->Load("broken", MakeImage(4)).code(),
            StatusCode::kAlreadyExists);

  // Recovery: Unload the FAILED entry, then a clean Load serves.
  ASSERT_TRUE(registry->Unload("broken").ok());
  ASSERT_TRUE(registry->Load("broken", MakeImage(4)).ok());
  EXPECT_TRUE(registry->Predict("broken", Probe(0)).ok());
  // Drain before reading stats: the admitted == completed identity only
  // closes once the front-ends have retired their in-flight bookkeeping.
  registry->Shutdown();
  const RegistryStats stats = registry->stats();
  EXPECT_EQ(stats.load_failures, 1u);
  EXPECT_EQ(stats.loads_ok, 1u);
  ExpectAccountingCloses(stats);
}

// ---------------------------------------------------------------------------
// Snapshot cold start

TEST(RegistrySnapshotTest, ColdStartFromSnapshotServesIdentically) {
  auto image = MakeImage(5);
  const std::string path = ::testing::TempDir() + "/treewm_registry_cold.twsn";
  ASSERT_TRUE(io::SaveEnsembleSnapshot(*image, path).ok());

  auto registry = MakeRegistry();
  ASSERT_TRUE(registry->LoadFromSnapshot("cold", path).ok());
  auto info = registry->Info("cold");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().state, ModelState::kServing);
  EXPECT_EQ(info.value().checksum, io::EnsembleChecksum(*image));

  const auto reference = ReferenceAnswers(image, 4);
  for (size_t i = 0; i < reference.size(); ++i) {
    auto result = registry->Predict("cold", Probe(i));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(SameResult(result.value(), reference[i]));
  }
  std::remove(path.c_str());
}

TEST(RegistrySnapshotTest, CorruptSnapshotFailsLoadClosed) {
  auto image = MakeImage(6);
  const std::string path = ::testing::TempDir() + "/treewm_registry_bad.twsn";
  ASSERT_TRUE(io::SaveEnsembleSnapshot(*image, path).ok());

  auto registry = MakeRegistry();
  {
    ScopedFault fault("serve.registry.snapshot.corrupt", {});
    const Status failed = registry->LoadFromSnapshot("corrupt", path);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kParseError);
  }
  auto info = registry->Info("corrupt");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().state, ModelState::kFailed);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Atomic hot reload

TEST(RegistryReloadTest, ReloadUnderTrafficDropsAndRefusesNothing) {
  auto image_a = MakeImage(10);
  auto image_b = MakeImage(11, /*num_trees=*/9);  // distinguishable shape
  constexpr size_t kProbes = 8;
  const auto ref_a = ReferenceAnswers(image_a, kProbes);
  const auto ref_b = ReferenceAnswers(image_b, kProbes);

  auto registry = MakeRegistry();
  ASSERT_TRUE(registry->Load("m", image_a).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 150;
  std::atomic<bool> start{false};
  std::atomic<uint64_t> matched_a{0};
  std::atomic<uint64_t> matched_b{0};
  std::atomic<uint64_t> spurious_refusals{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> failed_reloads{0};
  ThreadPool pool(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(pool.Submit([&, t] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      Rng rng(1000 + t);
      for (int i = 0; i < kPerThread; ++i) {
        const size_t p =
            static_cast<size_t>(rng.UniformIntRange(0, kProbes - 1));
        auto result = registry->Predict("m", Probe(p));
        // The swap must never drop or spuriously refuse a request.
        if (!result.ok()) {
          spurious_refusals.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const bool is_a = SameResult(result.value(), ref_a[p]);
        const bool is_b = SameResult(result.value(), ref_b[p]);
        if (is_a == is_b) {  // matches neither image exactly (or both)
          mismatches.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        (is_a ? matched_a : matched_b).fetch_add(1, std::memory_order_relaxed);
      }
    }).ok());
  }
  ASSERT_TRUE(pool.Submit([&] {
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int i = 0; i < 30; ++i) {
      const Status swapped =
          registry->Reload("m", (i % 2 == 0) ? image_b : image_a);
      if (!swapped.ok()) failed_reloads.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  }).ok());
  start.store(true, std::memory_order_release);
  pool.Shutdown();

  EXPECT_EQ(spurious_refusals.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(failed_reloads.load(), 0u);
  // Both images actually served (the swaps were observed by traffic).
  EXPECT_GT(matched_a.load(), 0u);
  EXPECT_GT(matched_b.load(), 0u);
  registry->Shutdown();
  const RegistryStats stats = registry->stats();
  EXPECT_EQ(stats.reloads_ok, 30u);
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kThreads) * kPerThread);
  // Zero drops, zero refusals: every submit was admitted and completed.
  EXPECT_EQ(stats.refused_not_serving, 0u);
  EXPECT_EQ(stats.serving.completed_ok, stats.submitted);
  ExpectAccountingCloses(stats);
}

TEST(RegistryReloadTest, SwapStallBlocksNeitherTrafficNorOtherModels) {
  auto registry = MakeRegistry();
  auto image_a = MakeImage(12);
  ASSERT_TRUE(registry->Load("stalled", image_a).ok());
  ASSERT_TRUE(registry->Load("bystander", MakeImage(13)).ok());

  FaultSpec stall;
  stall.stall = milliseconds(500);
  stall.max_fires = 1;
  ScopedFault fault("serve.registry.swap.stall", stall);

  auto image_c = MakeImage(14);  // built up front: the lambda reloads at once
  ThreadPool pool(1);
  std::atomic<bool> reload_returned{false};
  ASSERT_TRUE(pool.Submit([&] {
    const Status swapped = registry->Reload("stalled", image_c);
    EXPECT_TRUE(swapped.ok()) << swapped.ToString();
    reload_returned.store(true, std::memory_order_release);
  }).ok());
  // Wait for the reload thread to hit the stall site: once the hit is
  // registered it is parked inside a 500ms stall with the reload claimed.
  while (FaultInjection::HitCount("serve.registry.swap.stall") == 0) {
    std::this_thread::yield();
  }
  ASSERT_FALSE(reload_returned.load(std::memory_order_acquire));

  // While the swap is stalled: the old image keeps answering, the other
  // model is untouched, and a second reload of the same model is refused
  // typed instead of queueing behind the stall.
  EXPECT_TRUE(registry->Predict("stalled", Probe(0)).ok());
  EXPECT_TRUE(registry->Predict("bystander", Probe(0)).ok());
  EXPECT_EQ(registry->Reload("stalled", image_a).code(),
            StatusCode::kFailedPrecondition);
  // Unload during an in-flight reload is refused, not deadlocked.
  EXPECT_EQ(registry->Unload("stalled").code(),
            StatusCode::kFailedPrecondition);

  pool.Shutdown();
  ASSERT_TRUE(reload_returned.load(std::memory_order_acquire));
  // With the reload finished, both verbs work again.
  ASSERT_TRUE(registry->Reload("stalled", image_a).ok());
  ASSERT_TRUE(registry->Unload("stalled").ok());
  ExpectAccountingCloses(registry->stats());
}

TEST(RegistryReloadTest, CircuitBreakerOpensAfterConsecutiveFailures) {
  auto registry = MakeRegistry(SmallOptions(/*max_models=*/8,
                                            /*breaker_threshold=*/2));
  auto image = MakeImage(15);
  ASSERT_TRUE(registry->Load("flappy", image).ok());
  const auto reference = ReferenceAnswers(image, 2);

  {
    ScopedFault fault("serve.registry.load.fail", {});
    EXPECT_FALSE(registry->Reload("flappy", MakeImage(16)).ok());
    EXPECT_FALSE(registry->Reload("flappy", MakeImage(16)).ok());
  }
  // Threshold reached: the breaker refuses further reloads even though the
  // fault is gone — a crash-looping model file stops being retried.
  const Status refused = registry->Reload("flappy", MakeImage(16));
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
  auto info = registry->Info("flappy");
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info.value().breaker_open);
  EXPECT_EQ(info.value().reload_failures, 2u);
  EXPECT_EQ(info.value().state, ModelState::kServing);

  // The OLD image never stopped serving, bit-for-bit.
  for (size_t i = 0; i < reference.size(); ++i) {
    auto result = registry->Predict("flappy", Probe(i));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(SameResult(result.value(), reference[i]));
  }

  // Unload + Load is the reset path.
  ASSERT_TRUE(registry->Unload("flappy").ok());
  ASSERT_TRUE(registry->Load("flappy", image).ok());
  auto reset = registry->Info("flappy");
  ASSERT_TRUE(reset.ok());
  EXPECT_FALSE(reset.value().breaker_open);
  ASSERT_TRUE(registry->Reload("flappy", MakeImage(16)).ok());
  const RegistryStats stats = registry->stats();
  EXPECT_EQ(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.reload_failures, 2u);
  ExpectAccountingCloses(stats);
}

TEST(RegistryReloadTest, SuccessResetsTheConsecutiveFailureCount) {
  auto registry = MakeRegistry(SmallOptions(/*max_models=*/8,
                                            /*breaker_threshold=*/2));
  ASSERT_TRUE(registry->Load("m", MakeImage(17)).ok());
  {
    ScopedFault fault("serve.registry.load.fail", {});
    EXPECT_FALSE(registry->Reload("m", MakeImage(18)).ok());
  }
  ASSERT_TRUE(registry->Reload("m", MakeImage(18)).ok());  // resets the streak
  {
    ScopedFault fault("serve.registry.load.fail", {});
    EXPECT_FALSE(registry->Reload("m", MakeImage(18)).ok());
  }
  // One failure per streak, threshold two: the breaker never opened.
  auto info = registry->Info("m");
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info.value().breaker_open);
  EXPECT_TRUE(registry->Reload("m", MakeImage(17)).ok());
}

// ---------------------------------------------------------------------------
// Bulkhead isolation

TEST(RegistryBulkheadTest, HotModelOverloadShedsOnlyItsOwnTraffic) {
  // Manual mode + tiny queue: the hot model's flood deterministically
  // overflows its own bulkhead while the cold model's stays empty.
  auto registry = MakeRegistry(SmallOptions(/*max_models=*/4,
                                            /*breaker_threshold=*/3,
                                            /*start_dispatcher=*/false,
                                            /*queue_capacity=*/4));
  ASSERT_TRUE(registry->Load("hot", MakeImage(20)).ok());
  ASSERT_TRUE(registry->Load("cold", MakeImage(21)).ok());

  std::vector<std::future<Result<PredictResult>>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(registry->SubmitPredict("hot", Probe(0)));
  }
  auto cold_future = registry->SubmitPredict("cold", Probe(0));

  // The overflow was refused immediately and typed; nothing blocked.
  size_t hot_refused = 0;
  auto hot_info = registry->Info("hot");
  ASSERT_TRUE(hot_info.ok());
  EXPECT_EQ(hot_info.value().serving.rejected_full, 8u);

  // The cold model's bulkhead never saw the flood.
  auto cold_info = registry->Info("cold");
  ASSERT_TRUE(cold_info.ok());
  EXPECT_EQ(cold_info.value().serving.rejected_full, 0u);
  EXPECT_EQ(cold_info.value().serving.submitted, 1u);

  // Pump both models until dry; admitted work completes, the cold answer
  // arrives.
  for (const char* id : {"hot", "cold"}) {
    while (true) {
      auto answered = registry->Pump(id, /*force_flush=*/true);
      ASSERT_TRUE(answered.ok()) << answered.status().ToString();
      if (answered.value() == 0) break;
    }
  }
  auto cold_result = cold_future.get();
  ASSERT_TRUE(cold_result.ok()) << cold_result.status().ToString();
  for (auto& f : futures) {
    auto result = f.get();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      ++hot_refused;
    }
  }
  EXPECT_EQ(hot_refused, 8u);
  registry->Shutdown();
  ExpectAccountingCloses(registry->stats());
}

// ---------------------------------------------------------------------------
// Chaos matrix: concurrent reloads × unload/load churn × mixed-model
// traffic × fault schedules

struct ChaosSchedule {
  const char* name;
  const char* site;  // nullptr = no fault armed
  double probability;
  std::chrono::nanoseconds stall{0};
};

TEST(RegistryChaosMatrixTest, AccountingClosesAndResultsMatchAnImage) {
  const ChaosSchedule schedules[] = {
      {"no-faults", nullptr, 0.0, {}},
      {"load-fail-half", "serve.registry.load.fail", 0.5, {}},
      {"swap-stall", "serve.registry.swap.stall", 0.3, microseconds(500)},
      {"snapshot-corrupt", "serve.registry.snapshot.corrupt", 0.5, {}},
  };
  constexpr size_t kModels = 3;
  constexpr size_t kProbes = 6;
  constexpr int kTrafficThreads = 4;
  constexpr int kPerThread = 120;

  // Two candidate images per model, plus a snapshot file of image A for
  // the ReloadFromSnapshot churn.
  std::vector<std::shared_ptr<const predict::FlatEnsemble>> image_a;
  std::vector<std::shared_ptr<const predict::FlatEnsemble>> image_b;
  std::vector<std::vector<PredictResult>> ref_a;
  std::vector<std::vector<PredictResult>> ref_b;
  std::vector<std::string> snapshot_paths;
  for (size_t m = 0; m < kModels; ++m) {
    image_a.push_back(MakeImage(100 + m));
    image_b.push_back(MakeImage(200 + m, /*num_trees=*/9));
    ref_a.push_back(ReferenceAnswers(image_a[m], kProbes));
    ref_b.push_back(ReferenceAnswers(image_b[m], kProbes));
    const std::string path = ::testing::TempDir() + "/treewm_chaos_" +
                             std::to_string(m) + ".twsn";
    EXPECT_TRUE(io::SaveEnsembleSnapshot(*image_a[m], path).ok());
    snapshot_paths.push_back(path);
  }
  const auto model_name = [](size_t m) { return "model-" + std::to_string(m); };

  for (const ChaosSchedule& schedule : schedules) {
    SCOPED_TRACE(schedule.name);
    auto registry = MakeRegistry(SmallOptions(/*max_models=*/kModels + 1));
    for (size_t m = 0; m < kModels; ++m) {
      ASSERT_TRUE(registry->Load(model_name(m), image_a[m]).ok());
    }

    std::optional<ScopedFault> fault;
    if (schedule.site != nullptr) {
      FaultSpec spec;
      spec.probability = schedule.probability;
      spec.stall = schedule.stall;
      fault.emplace(schedule.site, spec);
    }

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> mismatches{0};
    std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> refused{0};
    ThreadPool pool(kTrafficThreads + 2);

    for (int t = 0; t < kTrafficThreads; ++t) {
      ASSERT_TRUE(pool.Submit([&, t] {
        Rng rng(7000 + t);
        for (int i = 0; i < kPerThread; ++i) {
          // Upper bound inclusive: m == kModels plays the unknown-model id.
          const size_t m =
              static_cast<size_t>(rng.UniformIntRange(0, kModels));
          const size_t p =
              static_cast<size_t>(rng.UniformIntRange(0, kProbes - 1));
          auto result =
              registry->Predict(m == kModels ? "no-such-model" : model_name(m),
                                Probe(p));
          if (!result.ok()) {
            // Typed refusals only: unknown model, a FAILED/DRAINING window,
            // or bulkhead pushback — never a hung or dropped future.
            refused.fetch_add(1, std::memory_order_relaxed);
            const StatusCode code = result.status().code();
            if (code != StatusCode::kNotFound &&
                code != StatusCode::kFailedPrecondition &&
                code != StatusCode::kResourceExhausted) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
            continue;
          }
          completed.fetch_add(1, std::memory_order_relaxed);
          if (m < kModels &&
              !SameResult(result.value(), ref_a[m][p]) &&
              !SameResult(result.value(), ref_b[m][p])) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }).ok());
    }
    // Churn thread 1: hot reloads alternating images + snapshot reloads.
    ASSERT_TRUE(pool.Submit([&] {
      Rng rng(31);
      int round = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const size_t m =
            static_cast<size_t>(rng.UniformIntRange(0, kModels - 1));
        Status outcome;
        if (round++ % 3 == 2) {
          outcome = registry->ReloadFromSnapshot(model_name(m),
                                                 snapshot_paths[m]);
        } else {
          outcome = registry->Reload(
              model_name(m), (round % 2 == 0) ? image_a[m] : image_b[m]);
        }
        // Failures are expected under the fault schedules (the breaker may
        // open); what traffic observes is asserted after the joins.
        (void)outcome;  // discard ok: chaos churn, invariants checked later
        std::this_thread::yield();
      }
    }).ok());
    // Churn thread 2: unload/load cycles on the last model.
    ASSERT_TRUE(pool.Submit([&] {
      const std::string victim = model_name(kModels - 1);
      while (!stop.load(std::memory_order_acquire)) {
        if (registry->Unload(victim).ok()) {
          // discard ok: reload churn may race the slot; traffic tolerates
          // a NotFound window either way
          (void)registry->Load(victim, image_a[kModels - 1]);
        }
        std::this_thread::yield();
      }
    }).ok());

    // pool.Shutdown() drains: traffic tasks finish, then we stop the churn.
    // (Submit order doesn't guarantee scheduling; the stop flag does.)
    ThreadPool waiter(1);
    ASSERT_TRUE(waiter.Submit([&] {
      while (completed.load(std::memory_order_acquire) +
                 refused.load(std::memory_order_acquire) <
             static_cast<uint64_t>(kTrafficThreads) * kPerThread) {
        std::this_thread::yield();
      }
      stop.store(true, std::memory_order_release);
    }).ok());
    waiter.Shutdown();
    pool.Shutdown();
    fault.reset();
    registry->Shutdown();

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(completed.load() + refused.load(),
              static_cast<uint64_t>(kTrafficThreads) * kPerThread);
    const RegistryStats stats = registry->stats();
    EXPECT_EQ(stats.submitted,
              static_cast<uint64_t>(kTrafficThreads) * kPerThread);
    ExpectAccountingCloses(stats);
  }
  for (const std::string& path : snapshot_paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace treewm::serve
