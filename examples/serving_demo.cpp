// Serving demo: the fault-tolerant front-end from a client's point of view.
//
//   1. train a forest, wrap its flat image in a ServingFrontEnd,
//   2. serve single-instance requests and check them against the scalar path,
//   3. force overload pushback (ResourceExhausted) with an injected fault and
//      ride it out with RetryWithBackoff — the polite-client discipline,
//   4. show a deadline failing closed, then drain on shutdown.
//
// Build & run:  cmake --build build && ./build/example_serving_demo

#include <chrono>
#include <cstdio>

#include "common/fault_injection.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "predict/flat_ensemble.h"
#include "serve/retry.h"
#include "serve/serving_front_end.h"

int main() {
  using namespace treewm;
  using std::chrono::milliseconds;

  // 1. A model to serve: 16 trees on the synthetic breast-cancer workload.
  data::Dataset dataset = data::synthetic::MakeBreastCancerLike(/*seed=*/2025);
  Rng rng(1);
  auto split = data::MakeTrainTest(dataset, /*test_fraction=*/0.3, &rng).MoveValue();
  forest::ForestConfig config;
  config.num_trees = 16;
  config.seed = 5;
  auto forest = forest::RandomForest::Fit(split.train, {}, config).MoveValue();

  serve::ServingOptions options;
  options.queue.capacity = 64;
  options.queue.shed_high_water = 48;
  options.queue.max_batch_rows = 32;
  options.queue.max_batch_delay = milliseconds(1);
  auto serving =
      serve::ServingFrontEnd::Create(
          std::make_shared<predict::FlatEnsemble>(
              predict::FlatEnsemble::FromClassificationTrees(forest.trees())),
          options)
          .MoveValue();
  std::printf("serving %zu trees over %zu features\n", serving->num_trees(),
              serving->num_features());

  // 2. Single-instance requests; answers match the scalar reference bit for
  //    bit regardless of how the front-end batched them.
  size_t agree = 0;
  const size_t kProbes = 50;
  for (size_t i = 0; i < kProbes; ++i) {
    auto result = serving->Predict(split.test.Row(i)).MoveValue();
    agree += result.label == forest.Predict(split.test.Row(i)) ? 1 : 0;
  }
  std::printf("served == scalar reference on %zu/%zu probes\n", agree, kProbes);

  // 3. Overload pushback. Arm the queue-full fault site so the first two
  //    admissions are refused ResourceExhausted — exactly what a client sees
  //    when the shed high-water trips — and retry with capped exponential
  //    backoff + jitter. Attempt 3 lands after ~3 ms of backing off.
  FaultSpec queue_full;
  queue_full.max_fires = 2;
  ScopedFault forced_overload("serve.admission.full", queue_full);
  serve::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = milliseconds(1);
  policy.seed = 7;
  size_t attempts = 0;
  auto retried = serve::RetryWithBackoff(policy, /*clock=*/nullptr, [&] {
    ++attempts;
    return serving->Predict(split.test.Row(0));
  });
  std::printf("overload: attempt 1+2 shed, attempt %zu served label %+d %s\n",
              attempts, retried.ok() ? retried.value().label : 0,
              retried.ok() ? "(retry absorbed the pushback)" : "(gave up)");

  // Deadlines are NOT retried — a request whose time budget is spent is
  // dead, not unlucky. Zero timeout expires at the admission check.
  serve::RequestOptions instant;
  instant.timeout = std::chrono::nanoseconds(1);
  attempts = 0;
  auto expired = serve::RetryWithBackoff(policy, /*clock=*/nullptr, [&] {
    ++attempts;
    return serving->Predict(split.test.Row(0), instant);
  });
  std::printf("deadline: %s after %zu attempt(s) — fails closed, no retry\n",
              StatusCodeName(expired.status().code()), attempts);

  // 4. Drain: every accepted request is answered before Shutdown returns.
  serving->Shutdown();
  auto stats = serving->stats();
  std::printf(
      "stats: submitted %llu, admitted %llu, completed %llu, shed %llu, "
      "expired %llu, batches %llu (max %llu rows)\n",
      (unsigned long long)stats.submitted, (unsigned long long)stats.admitted,
      (unsigned long long)stats.completed_ok,
      (unsigned long long)(stats.rejected_full + stats.rejected_shed),
      (unsigned long long)(stats.expired_admission + stats.expired_dispatch +
                           stats.expired_completion),
      (unsigned long long)stats.batches, (unsigned long long)stats.max_batch_rows);
  return 0;
}
