// Tests for the fault-tolerant serving front-end: admission queue
// backpressure and its batching rule, deadline handling at dispatch and at
// completion, load shedding, drain-on-shutdown, the completion-callback
// contract, and the determinism-under-faults property the whole subsystem
// exists to keep.

#include "serve/serving_front_end.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "predict/flat_ensemble.h"
#include "serve/admission_queue.h"

namespace treewm::serve {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::nanoseconds;

QueuedRequest MakeRequest(uint64_t id,
                          nanoseconds admitted_at = nanoseconds{0},
                          nanoseconds deadline = kNoDeadline) {
  QueuedRequest r;
  r.id = id;
  r.admitted_at = admitted_at;
  r.deadline = deadline;
  r.done = [](Result<PredictResult>) {};
  return r;
}

forest::RandomForest TrainForest(uint64_t seed, size_t num_trees = 9,
                                 size_t rows = 300, size_t features = 6) {
  auto d = data::synthetic::MakeBlobs(seed, rows, features, 1.5);
  forest::ForestConfig config;
  config.num_trees = num_trees;
  config.seed = seed;
  return forest::RandomForest::Fit(d, {}, config).MoveValue();
}

std::shared_ptr<const predict::FlatEnsemble> FlatOf(
    const forest::RandomForest& forest) {
  return std::make_shared<predict::FlatEnsemble>(
      predict::FlatEnsemble::FromClassificationTrees(forest.trees()));
}

// ---------------------------------------------------------------------------
// AdmissionQueue

/// Ids of `batch`, in order.
std::vector<uint64_t> IdsOf(const std::vector<QueuedRequest>& batch) {
  std::vector<uint64_t> ids;
  for (const QueuedRequest& request : batch) ids.push_back(request.id);
  return ids;
}

TEST(AdmissionQueueTest, FifoOrderAndStats) {
  FakeClock clock;
  AdmissionQueueOptions options;
  options.capacity = 4;
  AdmissionQueue queue(options, &clock);
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(queue.Push(MakeRequest(id)).ok());
  }
  std::vector<QueuedRequest> batch;
  ASSERT_TRUE(queue.TryPopBatch(/*force=*/true, &batch));
  EXPECT_EQ(IdsOf(batch), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_FALSE(queue.TryPopBatch(/*force=*/true, &batch));
  const auto stats = queue.stats();
  EXPECT_EQ(stats.pushed, 3u);
  EXPECT_EQ(stats.popped, 3u);
  EXPECT_EQ(stats.high_water, 3u);
}

TEST(AdmissionQueueTest, RejectPolicyFailsFastAtCapacity) {
  FakeClock clock;
  AdmissionQueueOptions options;
  options.capacity = 2;
  options.max_batch_rows = 1;
  AdmissionQueue queue(options, &clock);
  ASSERT_TRUE(queue.Push(MakeRequest(1)).ok());
  ASSERT_TRUE(queue.Push(MakeRequest(2)).ok());
  Status st = queue.Push(MakeRequest(3));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.stats().rejected_full, 1u);
  // Space frees -> admission works again.
  std::vector<QueuedRequest> batch;
  ASSERT_TRUE(queue.TryPopBatch(/*force=*/false, &batch));
  EXPECT_TRUE(queue.Push(MakeRequest(4)).ok());
}

TEST(AdmissionQueueTest, ShedHighWaterRejectsBeforeCapacity) {
  FakeClock clock;
  AdmissionQueueOptions options;
  options.capacity = 8;
  options.shed_high_water = 2;
  AdmissionQueue queue(options, &clock);
  ASSERT_TRUE(queue.Push(MakeRequest(1)).ok());
  ASSERT_TRUE(queue.Push(MakeRequest(2)).ok());
  // At the shed mark: rejected even though capacity remains, and counted as
  // a shed, not a full queue.
  Status st = queue.Push(MakeRequest(3));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.stats().rejected_shed, 1u);
  EXPECT_EQ(queue.stats().rejected_full, 0u);
}

TEST(AdmissionQueueTest, ShutdownClosesAdmissionButDrains) {
  FakeClock clock;
  AdmissionQueueOptions options;
  options.capacity = 4;
  options.max_batch_rows = 1;
  options.max_batch_delay = std::chrono::hours(1);
  AdmissionQueue queue(options, &clock);
  ASSERT_TRUE(queue.Push(MakeRequest(1)).ok());
  ASSERT_TRUE(queue.Push(MakeRequest(2)).ok());
  queue.Shutdown();
  Status st = queue.Push(MakeRequest(3));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(queue.stats().rejected_shutdown, 1u);
  // Queued items are still drained in order, without waiting for the delay.
  std::vector<QueuedRequest> batch;
  ASSERT_TRUE(queue.PopBatch(&batch));
  EXPECT_EQ(IdsOf(batch), std::vector<uint64_t>{1});
  ASSERT_TRUE(queue.PopBatch(&batch));
  EXPECT_EQ(IdsOf(batch), std::vector<uint64_t>{2});
  EXPECT_FALSE(queue.PopBatch(&batch));  // drained: consumer can stop
}

TEST(AdmissionQueueTest, RefusedPushLeavesTheRequestWithTheCaller) {
  FakeClock clock;
  AdmissionQueueOptions options;
  options.capacity = 1;
  AdmissionQueue queue(options, &clock);
  ASSERT_TRUE(queue.Push(MakeRequest(1)).ok());
  QueuedRequest refused = MakeRequest(2);
  refused.features = {1.0f, 2.0f};
  ASSERT_FALSE(queue.Push(std::move(refused)).ok());
  // Push moves only on success: the refused request keeps its callback,
  // which its owner must still call.
  EXPECT_EQ(refused.id, 2u);
  EXPECT_EQ(refused.features.size(), 2u);
  EXPECT_TRUE(static_cast<bool>(refused.done));
}

TEST(AdmissionQueueTest, PopBatchReturnsAPartialBatchOnceTheDelayPasses) {
  AdmissionQueueOptions options;
  options.max_batch_rows = 64;
  options.max_batch_delay = milliseconds(20);
  AdmissionQueue queue(options, Clock::System());
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(queue.Push(MakeRequest(1, Clock::System()->Now())).ok());
  std::vector<QueuedRequest> batch;
  ASSERT_TRUE(queue.PopBatch(&batch));
  EXPECT_EQ(IdsOf(batch), std::vector<uint64_t>{1});
  EXPECT_GE(std::chrono::steady_clock::now() - start, milliseconds(10));
}

TEST(AdmissionQueueTest, PopBatchWakesOnShutdown) {
  AdmissionQueue queue(AdmissionQueueOptions{}, Clock::System());
  // lint ok: Shutdown must interrupt a PopBatch parked on a real CV — needs
  // a raw racing thread and a real delay, not FakeClock
  std::thread closer([&queue] {
    std::this_thread::sleep_for(milliseconds(5));  // lint ok: see above
    queue.Shutdown();
  });
  std::vector<QueuedRequest> batch;
  // Woke without an item: shutdown + drained.
  EXPECT_FALSE(queue.PopBatch(&batch));
  closer.join();
}

TEST(AdmissionQueueTest, InjectedFullFaultRejectsRegardlessOfDepth) {
  FakeClock clock;
  AdmissionQueueOptions options;
  options.capacity = 100;
  AdmissionQueue queue(options, &clock);
  FaultSpec spec;
  spec.max_fires = 1;
  ScopedFault fault("serve.admission.full", spec);
  Status st = queue.Push(MakeRequest(1));  // queue is empty, fault forces full
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.stats().rejected_full, 1u);
  EXPECT_TRUE(queue.Push(MakeRequest(2)).ok());  // max_fires spent
}

// The batching rule: a batch is due at max_batch_rows queued, or once the
// oldest queued request was admitted max_batch_delay ago.

TEST(AdmissionQueueTest, SizeTriggerFiresRegardlessOfClock) {
  FakeClock clock;
  AdmissionQueueOptions options;
  options.max_batch_rows = 3;
  options.max_batch_delay = std::chrono::hours(1);
  AdmissionQueue queue(options, &clock);
  std::vector<QueuedRequest> batch;
  ASSERT_TRUE(queue.Push(MakeRequest(1)).ok());
  ASSERT_TRUE(queue.Push(MakeRequest(2)).ok());
  EXPECT_FALSE(queue.TryPopBatch(/*force=*/false, &batch));
  ASSERT_TRUE(queue.Push(MakeRequest(3)).ok());
  ASSERT_TRUE(queue.TryPopBatch(/*force=*/false, &batch));
  EXPECT_EQ(batch.size(), 3u);
}

TEST(AdmissionQueueTest, DelayTriggerCountsFromOldestAdmission) {
  const nanoseconds t0{1000};
  FakeClock clock(t0);
  AdmissionQueueOptions options;
  options.max_batch_rows = 100;
  options.max_batch_delay = microseconds(500);
  AdmissionQueue queue(options, &clock);
  ASSERT_TRUE(queue.Push(MakeRequest(1, t0)).ok());
  ASSERT_TRUE(queue.Push(MakeRequest(2, t0 + microseconds(400))).ok());  // newer: irrelevant
  std::vector<QueuedRequest> batch;
  clock.Advance(microseconds(499));
  EXPECT_FALSE(queue.TryPopBatch(/*force=*/false, &batch));
  clock.Advance(microseconds(1));
  ASSERT_TRUE(queue.TryPopBatch(/*force=*/false, &batch));
  EXPECT_EQ(IdsOf(batch), (std::vector<uint64_t>{1, 2}));
}

TEST(AdmissionQueueTest, BatchIsFifoAndBounded) {
  FakeClock clock;
  AdmissionQueueOptions options;
  options.max_batch_rows = 2;
  AdmissionQueue queue(options, &clock);
  for (uint64_t id = 1; id <= 5; ++id) ASSERT_TRUE(queue.Push(MakeRequest(id)).ok());
  std::vector<QueuedRequest> batch;
  ASSERT_TRUE(queue.TryPopBatch(/*force=*/false, &batch));
  EXPECT_EQ(IdsOf(batch), (std::vector<uint64_t>{1, 2}));
  ASSERT_TRUE(queue.TryPopBatch(/*force=*/false, &batch));
  EXPECT_EQ(IdsOf(batch), (std::vector<uint64_t>{3, 4}));
  // The lone fifth request is not a full batch, and its delay has not passed.
  EXPECT_FALSE(queue.TryPopBatch(/*force=*/false, &batch));
  ASSERT_TRUE(queue.TryPopBatch(/*force=*/true, &batch));
  EXPECT_EQ(IdsOf(batch), std::vector<uint64_t>{5});
}

TEST(AdmissionQueueTest, EmptyQueueIsNeverDue) {
  FakeClock clock(nanoseconds::max() - nanoseconds{1});
  AdmissionQueue queue(AdmissionQueueOptions{}, &clock);
  std::vector<QueuedRequest> batch;
  EXPECT_FALSE(queue.TryPopBatch(/*force=*/false, &batch));
  EXPECT_FALSE(queue.TryPopBatch(/*force=*/true, &batch));
}

TEST(AdmissionQueueTest, DueTimeSaturatesInsteadOfOverflowing) {
  // admitted_at + max_batch_delay would overflow: the batch is due only by
  // size or shutdown, never "in the past".
  FakeClock clock(nanoseconds::max() - nanoseconds{10});
  AdmissionQueueOptions options;
  options.max_batch_delay = std::chrono::hours(1);
  AdmissionQueue queue(options, &clock);
  ASSERT_TRUE(queue.Push(MakeRequest(1, clock.Now())).ok());
  std::vector<QueuedRequest> batch;
  EXPECT_FALSE(queue.TryPopBatch(/*force=*/false, &batch));
  queue.Shutdown();
  ASSERT_TRUE(queue.TryPopBatch(/*force=*/false, &batch));
  EXPECT_EQ(IdsOf(batch), std::vector<uint64_t>{1});
}

// ---------------------------------------------------------------------------
// ServingFrontEnd

class ServingFrontEndTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjection::Reset(); }

  /// The callback API's immediate-refusal contract: `done` runs exactly
  /// once, before Submit returns. Returns the refusal's code.
  static StatusCode SubmitRefusedInline(ServingFrontEnd* serving,
                                        std::span<const float> x) {
    struct Seen {
      int calls = 0;
      StatusCode code = StatusCode::kOk;
    };
    auto seen = std::make_shared<Seen>();
    serving->Submit(x, {}, [seen](Result<PredictResult> result) {
      ++seen->calls;
      seen->code = result.status().code();
    });
    EXPECT_EQ(seen->calls, 1);
    return seen->code;
  }

  std::unique_ptr<ServingFrontEnd> MakeManualFrontEnd(
      const forest::RandomForest& forest, FakeClock* clock,
      ServingOptions options = {}) {
    options.clock = clock;
    options.start_dispatcher = false;
    auto created = ServingFrontEnd::Create(FlatOf(forest), options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    return created.MoveValue();
  }
};

TEST_F(ServingFrontEndTest, CreateValidatesInputs) {
  auto forest = TrainForest(1);
  EXPECT_FALSE(ServingFrontEnd::Create(nullptr, {}).ok());
  ServingOptions bad;
  bad.queue.capacity = 4;
  bad.queue.shed_high_water = 8;
  EXPECT_FALSE(ServingFrontEnd::Create(FlatOf(forest), bad).ok());
}

TEST_F(ServingFrontEndTest, ResultsMatchScalarReference) {
  // The even tree count lets votes tie: a tied row must be served +1, the
  // ensemble tie rule RandomForest::Predict applies.
  for (size_t num_trees : {9u, 8u}) {
    SCOPED_TRACE("trees=" + std::to_string(num_trees));
    auto forest = TrainForest(2, num_trees);
    FakeClock clock;
    auto serving = MakeManualFrontEnd(forest, &clock);
    auto trace = data::synthetic::MakeBlobs(3, 40, 6, 1.5);
    std::vector<std::future<Result<PredictResult>>> futures;
    for (size_t i = 0; i < trace.num_rows(); ++i) {
      futures.push_back(serving->SubmitPredict(trace.Row(i)));
    }
    serving->Pump(/*force_flush=*/true);
    size_t ties = 0;
    for (size_t i = 0; i < trace.num_rows(); ++i) {
      auto result = futures[i].get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result.value().label, forest.Predict(trace.Row(i)));
      const std::vector<int> expected_votes = forest.PredictAll(trace.Row(i));
      ASSERT_EQ(result.value().votes.size(), expected_votes.size());
      int sum = 0;
      for (size_t t = 0; t < expected_votes.size(); ++t) {
        EXPECT_EQ(static_cast<int>(result.value().votes[t]), expected_votes[t]);
        sum += expected_votes[t];
      }
      if (sum == 0) {
        ++ties;
        EXPECT_EQ(result.value().label, +1) << "tied row " << i;
      }
    }
    if (num_trees % 2 == 0) EXPECT_GE(ties, 1u);
    const auto stats = serving->stats();
    EXPECT_EQ(stats.submitted, trace.num_rows());
    EXPECT_EQ(stats.completed_ok, trace.num_rows());
  }
}

TEST_F(ServingFrontEndTest, WrongFeatureCountFailsImmediately) {
  auto forest = TrainForest(4);
  FakeClock clock;
  auto serving = MakeManualFrontEnd(forest, &clock);
  const std::vector<float> short_row(2, 0.0f);
  auto future = serving->SubmitPredict(short_row);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  auto result = future.get();
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(SubmitRefusedInline(serving.get(), short_row),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(serving->stats().rejected_invalid, 2u);
}

TEST_F(ServingFrontEndTest, DeadlineExpiredWaitingIsAnsweredAtDispatch) {
  auto forest = TrainForest(5);
  FakeClock clock;
  auto serving = MakeManualFrontEnd(forest, &clock);
  const std::vector<float> row(6, 0.0f);
  RequestOptions with_deadline;
  with_deadline.timeout = milliseconds(1);
  auto late = serving->SubmitPredict(row, with_deadline);
  auto unconstrained = serving->SubmitPredict(row);
  clock.Advance(milliseconds(5));  // the request dies in the queue
  serving->Pump(/*force_flush=*/true);
  EXPECT_EQ(late.get().status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(unconstrained.get().ok());
  const auto stats = serving->stats();
  EXPECT_EQ(stats.expired_dispatch, 1u);
  EXPECT_EQ(stats.completed_ok, 1u);
  // The expired request never reached the predictor.
  EXPECT_EQ(stats.batched_rows, 1u);
}

TEST_F(ServingFrontEndTest, DeadlineExpiredDuringComputeFailsClosed) {
  // Completion-deadline path: a stall injected between batch formation and
  // the predictor call makes real time pass mid-batch.
  auto forest = TrainForest(6);
  ServingOptions options;
  options.start_dispatcher = false;  // manual mode on the system clock
  auto created = ServingFrontEnd::Create(FlatOf(forest), options);
  ASSERT_TRUE(created.ok());
  auto serving = created.MoveValue();
  FaultSpec spec;
  spec.stall = milliseconds(60);
  spec.max_fires = 1;
  ScopedFault fault("serve.batch.stall", spec);
  const std::vector<float> row(6, 0.0f);
  RequestOptions with_deadline;
  with_deadline.timeout = milliseconds(25);
  auto future = serving->SubmitPredict(row, with_deadline);
  serving->Pump(/*force_flush=*/true);  // dispatch well within the deadline
  EXPECT_EQ(future.get().status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(serving->stats().expired_completion, 1u);
}

TEST_F(ServingFrontEndTest, ShedsPastHighWaterAndServesTheBacklogInFullBatches) {
  auto forest = TrainForest(7);
  FakeClock clock;
  ServingOptions options;
  options.queue.capacity = 8;
  options.queue.shed_high_water = 4;
  options.queue.max_batch_rows = 2;
  options.queue.max_batch_delay = std::chrono::hours(1);  // only full batches are due
  auto serving = MakeManualFrontEnd(forest, &clock, options);
  const std::vector<float> row(6, 0.5f);
  std::vector<std::future<Result<PredictResult>>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(serving->SubmitPredict(row));
  // 4 admitted, 2 shed.
  size_t shed = 0;
  for (int i = 4; i < 6; ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(futures[i].get().status().code(), StatusCode::kResourceExhausted);
    ++shed;
  }
  EXPECT_EQ(shed, 2u);
  EXPECT_EQ(SubmitRefusedInline(serving.get(), row),
            StatusCode::kResourceExhausted);
  // The backlog forms full batches at once: no clock time passes, yet the
  // pump answers all 4 in 2 batches.
  EXPECT_EQ(serving->Pump(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(futures[i].get().ok());
  const auto stats = serving->stats();
  EXPECT_EQ(stats.rejected_shed, 3u);
  EXPECT_EQ(stats.completed_ok, 4u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.max_batch_rows, 2u);
  EXPECT_EQ(stats.degraded_flushes, 0u);
}

TEST_F(ServingFrontEndTest, LongTimeoutSaturatesInsteadOfWrappingIntoThePast) {
  // A timeout near int64 max (the wire accepts up to 2^63 - 2 ns) must mean
  // "practically never", not a deadline that overflowed into the past.
  auto forest = TrainForest(12);
  FakeClock clock(std::chrono::seconds(1));
  auto serving = MakeManualFrontEnd(forest, &clock);
  const std::vector<float> row(6, 0.25f);
  RequestOptions far;
  far.timeout = nanoseconds::max() - nanoseconds{1};
  auto future = serving->SubmitPredict(row, far);
  serving->Pump(/*force_flush=*/true);
  auto result = future.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().label, forest.Predict(row));
  EXPECT_EQ(serving->stats().expired_dispatch, 0u);
}

TEST_F(ServingFrontEndTest, ShutdownDrainsEveryAcceptedRequest) {
  auto forest = TrainForest(8);
  FakeClock clock;
  auto serving = MakeManualFrontEnd(forest, &clock);
  const std::vector<float> row(6, -0.25f);
  std::vector<std::future<Result<PredictResult>>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(serving->SubmitPredict(row));
  serving->Shutdown();  // no Pump ran: shutdown itself must answer them
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  // Admission is closed now.
  auto rejected = serving->SubmitPredict(row);
  EXPECT_EQ(rejected.get().status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(SubmitRefusedInline(serving.get(), row),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(serving->stats().rejected_shutdown, 2u);
}

TEST_F(ServingFrontEndTest, BackgroundDispatcherServesConcurrentClients) {
  auto forest = TrainForest(9);
  ServingOptions options;
  options.queue.max_batch_rows = 16;
  options.queue.max_batch_delay = microseconds(200);
  auto created = ServingFrontEnd::Create(FlatOf(forest), options);
  ASSERT_TRUE(created.ok());
  auto serving = created.MoveValue();
  auto trace = data::synthetic::MakeBlobs(10, 200, 6, 1.5);
  std::vector<Result<PredictResult>> results(trace.num_rows(),
                                             Status::Internal("unset"));
  const size_t kClients = 4;
  ThreadPool clients(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_TRUE(clients
                    .Submit([&, c] {
                      for (size_t i = c; i < trace.num_rows(); i += kClients) {
                        results[i] = serving->Predict(trace.Row(i));
                      }
                    })
                    .ok());
  }
  clients.Wait();
  serving->Shutdown();
  for (size_t i = 0; i < trace.num_rows(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    EXPECT_EQ(results[i].value().label, forest.Predict(trace.Row(i)));
  }
  const auto stats = serving->stats();
  EXPECT_EQ(stats.submitted, trace.num_rows());
  EXPECT_EQ(stats.completed_ok, trace.num_rows());
  EXPECT_GE(stats.batches, 1u);
  EXPECT_EQ(stats.batched_rows, trace.num_rows());
}

TEST_F(ServingFrontEndTest, BackgroundDispatcherWakesForAFullBatchOnly) {
  // With an hour-long delay, only a full batch (or Shutdown) may wake the
  // dispatcher: four requests complete at once, a lone fifth stays pending
  // until Shutdown answers it.
  auto forest = TrainForest(13);
  ServingOptions options;
  options.queue.max_batch_rows = 4;
  options.queue.max_batch_delay = std::chrono::hours(1);
  auto created = ServingFrontEnd::Create(FlatOf(forest), options);
  ASSERT_TRUE(created.ok());
  auto serving = created.MoveValue();
  const std::vector<float> row(6, 0.75f);
  std::vector<std::future<Result<PredictResult>>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(serving->SubmitPredict(row));
  for (auto& f : futures) {
    // A missed wake would park these for the hour: fail instead of hanging.
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)), std::future_status::ready);
    EXPECT_TRUE(f.get().ok());
  }
  auto lone = serving->SubmitPredict(row);
  EXPECT_EQ(lone.wait_for(milliseconds(50)), std::future_status::timeout);
  serving->Shutdown();
  EXPECT_TRUE(lone.get().ok());
  const auto stats = serving->stats();
  EXPECT_EQ(stats.completed_ok, 5u);
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.max_batch_rows, 4u);
}

// ---------------------------------------------------------------------------
// The determinism-under-faults property: for a fixed request trace, every
// completed request's result is bit-identical to the scalar reference across
// batch shapes x fault schedules, and every refused request fails closed
// with a typed Status. This is the contract that makes a served
// verification verdict reproducible evidence.

TEST(ServeDeterminismTest, CompletedResultsBitIdenticalAcrossConfigs) {
  auto forest = TrainForest(42, 9, 300, 6);
  auto trace = data::synthetic::MakeBlobs(43, 120, 6, 1.5);

  // Scalar reference, computed once.
  std::vector<int> expected_labels(trace.num_rows());
  std::vector<std::vector<int>> expected_votes(trace.num_rows());
  for (size_t i = 0; i < trace.num_rows(); ++i) {
    expected_labels[i] = forest.Predict(trace.Row(i));
    expected_votes[i] = forest.PredictAll(trace.Row(i));
  }

  enum class Schedule { kNone, kWorkerStall, kQueueFull };
  const size_t batch_sizes[] = {1, 16, 64};
  const Schedule schedules[] = {Schedule::kNone, Schedule::kWorkerStall,
                                Schedule::kQueueFull};

  for (size_t batch : batch_sizes) {
    for (Schedule schedule : schedules) {
      SCOPED_TRACE("batch=" + std::to_string(batch) +
                   " schedule=" + std::to_string(static_cast<int>(schedule)));
      FaultInjection::Reset();
      if (schedule == Schedule::kWorkerStall) {
        FaultSpec spec;
        spec.probability = 0.2;
        spec.stall = microseconds(200);
        spec.seed = 7;
        FaultInjection::Arm("thread_pool.worker.stall", spec);
      } else if (schedule == Schedule::kQueueFull) {
        FaultSpec spec;
        spec.probability = 0.3;
        spec.seed = 99;
        FaultInjection::Arm("serve.admission.full", spec);
      }

      ServingOptions options;
      options.queue.capacity = 256;
      options.queue.max_batch_rows = batch;
      options.queue.max_batch_delay = microseconds(100);
      auto created = ServingFrontEnd::Create(FlatOf(forest), options);
      ASSERT_TRUE(created.ok());
      auto serving = created.MoveValue();

      std::vector<std::future<Result<PredictResult>>> futures;
      for (size_t i = 0; i < trace.num_rows(); ++i) {
        futures.push_back(serving->SubmitPredict(trace.Row(i)));
      }
      size_t completed = 0, refused = 0;
      for (size_t i = 0; i < trace.num_rows(); ++i) {
        auto result = futures[i].get();
        if (result.ok()) {
          ++completed;
          // Bit-identical to the scalar reference, independent of config.
          EXPECT_EQ(result.value().label, expected_labels[i]);
          ASSERT_EQ(result.value().votes.size(), expected_votes[i].size());
          for (size_t t = 0; t < expected_votes[i].size(); ++t) {
            EXPECT_EQ(static_cast<int>(result.value().votes[t]),
                      expected_votes[i][t]);
          }
        } else {
          ++refused;
          // Fail closed: refusals carry a typed, retryable-or-not Status.
          EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
        }
      }
      serving->Shutdown();
      FaultInjection::Reset();

      if (schedule == Schedule::kQueueFull) {
        EXPECT_GT(refused, 0u);  // the fault really fired
      } else {
        EXPECT_EQ(refused, 0u);  // nothing else may refuse
      }
      const auto stats = serving->stats();
      EXPECT_EQ(stats.submitted, trace.num_rows());
      EXPECT_EQ(stats.completed_ok, completed);
      EXPECT_EQ(stats.admitted, completed);
      EXPECT_EQ(stats.rejected_full, refused);
      EXPECT_EQ(stats.batched_rows, completed);
    }
  }
}

}  // namespace
}  // namespace treewm::serve
