// Tests for the fault-tolerant serving front-end: admission queue
// backpressure, batcher coalescing, deadline handling at dispatch and at
// completion, load shedding + graceful degradation, drain-on-shutdown, the
// completion-callback contract, and the determinism-under-faults property
// the whole subsystem exists to keep.

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
#include "pool_of_width.h"
#include "predict/flat_ensemble.h"
#include "serve/admission_queue.h"
#include "serve/batcher.h"

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

TEST(AdmissionQueueTest, FifoOrderAndStats) {
  FakeClock clock;
  AdmissionQueueOptions options;
  options.capacity = 4;
  options.clock = &clock;
  AdmissionQueue queue(options);
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(queue.Push(MakeRequest(id)).ok());
  }
  EXPECT_EQ(queue.depth(), 3u);
  QueuedRequest out;
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(queue.TryPop(&out));
    EXPECT_EQ(out.id, id);
  }
  EXPECT_FALSE(queue.TryPop(&out));
  const auto stats = queue.stats();
  EXPECT_EQ(stats.pushed, 3u);
  EXPECT_EQ(stats.popped, 3u);
  EXPECT_EQ(stats.high_water, 3u);
}

TEST(AdmissionQueueTest, RejectPolicyFailsFastAtCapacity) {
  FakeClock clock;
  AdmissionQueueOptions options;
  options.capacity = 2;
  options.clock = &clock;
  AdmissionQueue queue(options);
  ASSERT_TRUE(queue.Push(MakeRequest(1)).ok());
  ASSERT_TRUE(queue.Push(MakeRequest(2)).ok());
  Status st = queue.Push(MakeRequest(3));
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.stats().rejected_full, 1u);
  // Space frees -> admission works again.
  QueuedRequest out;
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_TRUE(queue.Push(MakeRequest(4)).ok());
}

TEST(AdmissionQueueTest, ShedHighWaterRejectsBeforeCapacity) {
  FakeClock clock;
  AdmissionQueueOptions options;
  options.capacity = 8;
  options.shed_high_water = 2;
  options.clock = &clock;
  AdmissionQueue queue(options);
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
  options.clock = &clock;
  AdmissionQueue queue(options);
  ASSERT_TRUE(queue.Push(MakeRequest(1)).ok());
  ASSERT_TRUE(queue.Push(MakeRequest(2)).ok());
  queue.Shutdown();
  EXPECT_TRUE(queue.IsShutdown());
  Status st = queue.Push(MakeRequest(3));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(queue.stats().rejected_shutdown, 1u);
  // Queued items are still drained in order.
  QueuedRequest out;
  ASSERT_TRUE(queue.PopUntil(&out, kNoDeadline));
  EXPECT_EQ(out.id, 1u);
  ASSERT_TRUE(queue.PopUntil(&out, kNoDeadline));
  EXPECT_EQ(out.id, 2u);
  EXPECT_FALSE(queue.PopUntil(&out, kNoDeadline));  // drained: consumer can stop
}

TEST(AdmissionQueueTest, RefusedPushLeavesTheRequestWithTheCaller) {
  FakeClock clock;
  AdmissionQueueOptions options;
  options.capacity = 1;
  options.clock = &clock;
  AdmissionQueue queue(options);
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

TEST(AdmissionQueueTest, PopUntilGivesUpAtTheGivenTime) {
  AdmissionQueueOptions options;
  AdmissionQueue queue(options);
  QueuedRequest out;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(
      queue.PopUntil(&out, Clock::System()->Now() + nanoseconds(milliseconds(20))));
  EXPECT_GE(std::chrono::steady_clock::now() - start, milliseconds(10));
}

TEST(AdmissionQueueTest, PopUntilWakesOnShutdown) {
  AdmissionQueueOptions options;
  AdmissionQueue queue(options);
  // lint ok: Shutdown must interrupt a PopUntil parked on a real CV — needs
  // a raw racing thread and a real delay, not FakeClock
  std::thread closer([&queue] {
    std::this_thread::sleep_for(milliseconds(5));  // lint ok: see above
    queue.Shutdown();
  });
  QueuedRequest out;
  // Woke without an item: shutdown + drained.
  EXPECT_FALSE(queue.PopUntil(&out, kNoDeadline));
  closer.join();
}

TEST(AdmissionQueueTest, InjectedFullFaultRejectsRegardlessOfDepth) {
  FakeClock clock;
  AdmissionQueueOptions options;
  options.capacity = 100;
  options.clock = &clock;
  AdmissionQueue queue(options);
  FaultSpec spec;
  spec.max_fires = 1;
  ScopedFault fault("serve.admission.full", spec);
  Status st = queue.Push(MakeRequest(1));  // queue is empty, fault forces full
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.stats().rejected_full, 1u);
  EXPECT_TRUE(queue.Push(MakeRequest(2)).ok());  // max_fires spent
}

// ---------------------------------------------------------------------------
// Batcher

TEST(BatcherTest, SizeTriggerFiresRegardlessOfClock) {
  BatcherOptions options;
  options.max_batch_rows = 3;
  options.max_batch_delay = std::chrono::hours(1);
  Batcher batcher(options);
  batcher.Add(MakeRequest(1));
  batcher.Add(MakeRequest(2));
  EXPECT_FALSE(batcher.ShouldFlush(nanoseconds{0}));
  batcher.Add(MakeRequest(3));
  EXPECT_TRUE(batcher.ShouldFlush(nanoseconds{0}));
}

TEST(BatcherTest, DelayTriggerCountsFromOldestAdmission) {
  BatcherOptions options;
  options.max_batch_rows = 100;
  options.max_batch_delay = microseconds(500);
  Batcher batcher(options);
  const nanoseconds t0{1000};
  batcher.Add(MakeRequest(1, t0));
  batcher.Add(MakeRequest(2, t0 + microseconds(400)));  // newer: irrelevant
  EXPECT_EQ(batcher.NextFlushAt(), t0 + microseconds(500));
  EXPECT_FALSE(batcher.ShouldFlush(t0 + microseconds(499)));
  EXPECT_TRUE(batcher.ShouldFlush(t0 + microseconds(500)));
}

TEST(BatcherTest, TakeBatchIsFifoAndBounded) {
  BatcherOptions options;
  options.max_batch_rows = 2;
  Batcher batcher(options);
  for (uint64_t id = 1; id <= 5; ++id) batcher.Add(MakeRequest(id));
  auto batch = batcher.TakeBatch();
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, 1u);
  EXPECT_EQ(batch[1].id, 2u);
  EXPECT_EQ(batcher.pending(), 3u);
}

TEST(BatcherTest, DelayOverrideCollapsesAndRestores) {
  BatcherOptions options;
  options.max_batch_rows = 100;
  options.max_batch_delay = std::chrono::hours(1);
  Batcher batcher(options);
  batcher.Add(MakeRequest(1, nanoseconds{1000}));
  EXPECT_FALSE(batcher.ShouldFlush(nanoseconds{2000}));
  batcher.set_delay_override(nanoseconds{0});
  EXPECT_EQ(batcher.effective_delay(), nanoseconds{0});
  EXPECT_TRUE(batcher.ShouldFlush(nanoseconds{2000}));  // degraded: due now
  batcher.set_delay_override(std::nullopt);
  EXPECT_FALSE(batcher.ShouldFlush(nanoseconds{2000}));
}

TEST(BatcherTest, EmptyBatcherIsNeverDue) {
  Batcher batcher(BatcherOptions{});
  EXPECT_FALSE(batcher.ShouldFlush(nanoseconds::max()));
  EXPECT_EQ(batcher.NextFlushAt(), kNoDeadline);
  EXPECT_TRUE(batcher.TakeBatch().empty());
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
  auto forest = TrainForest(2);
  FakeClock clock;
  auto serving = MakeManualFrontEnd(forest, &clock);
  auto trace = data::synthetic::MakeBlobs(3, 40, 6, 1.5);
  std::vector<std::future<Result<PredictResult>>> futures;
  for (size_t i = 0; i < trace.num_rows(); ++i) {
    futures.push_back(serving->SubmitPredict(trace.Row(i)));
  }
  serving->Pump(/*force_flush=*/true);
  for (size_t i = 0; i < trace.num_rows(); ++i) {
    auto result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().label, forest.Predict(trace.Row(i)));
    const std::vector<int> expected_votes = forest.PredictAll(trace.Row(i));
    ASSERT_EQ(result.value().votes.size(), expected_votes.size());
    for (size_t t = 0; t < expected_votes.size(); ++t) {
      EXPECT_EQ(static_cast<int>(result.value().votes[t]), expected_votes[t]);
    }
  }
  const auto stats = serving->stats();
  EXPECT_EQ(stats.submitted, trace.num_rows());
  EXPECT_EQ(stats.completed_ok, trace.num_rows());
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

TEST_F(ServingFrontEndTest, ShedsPastHighWaterAndDegradesBatching) {
  auto forest = TrainForest(7);
  FakeClock clock;
  ServingOptions options;
  options.queue.capacity = 8;
  options.queue.shed_high_water = 4;
  options.batch.max_batch_rows = 2;
  options.batch.max_batch_delay = std::chrono::hours(1);  // only degradation flushes
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
  // Depth (4) >= degrade_depth (defaults to shed_high_water): the pump must
  // collapse the huge configured delay and flush everything now.
  serving->Pump();
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(futures[i].get().ok());
  const auto stats = serving->stats();
  EXPECT_EQ(stats.rejected_shed, 3u);
  EXPECT_EQ(stats.completed_ok, 4u);
  EXPECT_GT(stats.degraded_flushes, 0u);
  EXPECT_EQ(stats.max_batch_rows, 2u);  // degraded but still batch-bounded
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
  options.batch.max_batch_rows = 16;
  options.batch.max_batch_delay = microseconds(200);
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

// ---------------------------------------------------------------------------
// The determinism-under-faults property: for a fixed request trace, every
// completed request's result is bit-identical to the scalar reference across
// thread counts x batch shapes x fault schedules, and every refused request
// fails closed with a typed Status. This is the contract that makes a served
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
  const size_t thread_counts[] = {1, 2, 5};
  const size_t batch_sizes[] = {1, 16, 64};
  const Schedule schedules[] = {Schedule::kNone, Schedule::kWorkerStall,
                                Schedule::kQueueFull};

  std::unique_ptr<ThreadPool> owned;  // outlives every front-end below
  for (size_t threads : thread_counts) {
    ThreadPool* pool = PoolOfWidth(threads, &owned);
    for (size_t batch : batch_sizes) {
      for (Schedule schedule : schedules) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " batch=" + std::to_string(batch) +
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
        options.batch.max_batch_rows = batch;
        options.batch.max_batch_delay = microseconds(100);
        options.predictor.pool = pool;
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
}

}  // namespace
}  // namespace treewm::serve
