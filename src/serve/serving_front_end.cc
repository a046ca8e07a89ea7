#include "serve/serving_front_end.h"

#include <algorithm>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "data/dataset.h"

namespace treewm::serve {

Result<std::unique_ptr<ServingFrontEnd>> ServingFrontEnd::Create(
    std::shared_ptr<const predict::FlatEnsemble> ensemble,
    ServingOptions options) {
  if (ensemble == nullptr) {
    return Status::InvalidArgument("serving front-end needs an ensemble");
  }
  if (ensemble->is_regression()) {
    return Status::InvalidArgument(
        "serving front-end serves classification ensembles (per-tree votes); "
        "got a regression ensemble");
  }
  if (ensemble->num_trees() == 0 || ensemble->num_features() == 0) {
    return Status::InvalidArgument("ensemble has no trees or no features");
  }
  if (options.queue.shed_high_water > options.queue.capacity) {
    return Status::InvalidArgument("shed_high_water exceeds queue capacity");
  }
  return std::unique_ptr<ServingFrontEnd>(
      new ServingFrontEnd(std::move(ensemble), options));
}

ServingFrontEnd::ServingFrontEnd(
    std::shared_ptr<const predict::FlatEnsemble> ensemble,
    const ServingOptions& options)
    : ensemble_(std::move(ensemble)),
      clock_(options.clock != nullptr ? options.clock : Clock::System()),
      predictor_(ensemble_, options.predictor),
      queue_(options.queue, clock_) {
  if (options.start_dispatcher) {
    dispatcher_pool_ = std::make_unique<ThreadPool>(1);
    Status submitted = dispatcher_pool_->Submit([this] { DispatcherLoop(); });
    if (!submitted.ok()) {
      // A fresh 1-thread pool only rejects under an injected fault; fall
      // back to manual (Pump) mode rather than losing the dispatcher
      // silently — Shutdown() still drains every accepted request.
      LogWarning("serve: dispatcher submit rejected, falling back to manual mode: " +
                 submitted.ToString());
      dispatcher_pool_.reset();
    }
  }
}

ServingFrontEnd::~ServingFrontEnd() { Shutdown(); }

void ServingFrontEnd::Submit(std::span<const float> x,
                             const RequestOptions& request_options,
                             PredictCallback done) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (x.size() != ensemble_->num_features()) {
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    done(Status::InvalidArgument(
        "request has " + std::to_string(x.size()) + " features, model expects " +
        std::to_string(ensemble_->num_features())));
    return;
  }

  const auto now = clock_->Now();
  QueuedRequest request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.features.assign(x.begin(), x.end());
  // The timeout may come off the wire (up to int64 max): saturate, never
  // wrap into the past.
  request.deadline = request_options.timeout.count() > 0
                         ? DeadlineAfter(now, request_options.timeout)
                         : kNoDeadline;
  request.admitted_at = now;
  request.done = std::move(done);

  Status admitted = queue_.Push(std::move(request));
  if (!admitted.ok()) {
    // Rejections arrive at traffic rate under overload — rate-limit the log
    // so reporting the shed never becomes the bottleneck being reported.
    TREEWM_LOG_EVERY_N(LogLevel::kWarning, 256,
                       "serve: admission rejected: " + admitted.ToString());
    // Push moves only on success, so a refused request still holds `done`.
    request.done(std::move(admitted));  // NOLINT(bugprone-use-after-move)
  }
}

std::future<Result<PredictResult>> ServingFrontEnd::SubmitPredict(
    std::span<const float> x, const RequestOptions& options) {
  std::future<Result<PredictResult>> future;
  Submit(x, options, FulfilInto(&future));
  return future;
}

Result<PredictResult> ServingFrontEnd::Predict(std::span<const float> x,
                                               const RequestOptions& options) {
  return SubmitPredict(x, options).get();
}

size_t ServingFrontEnd::DispatchLocked(std::vector<QueuedRequest>* batch) {
  // Deadline check at dispatch: a request that already expired waiting in
  // the queue fails closed instead of occupying a batch slot.
  auto now = clock_->Now();
  std::vector<QueuedRequest> live;
  live.reserve(batch->size());
  size_t answered = 0;
  for (QueuedRequest& request : *batch) {
    if (request.deadline != kNoDeadline && now >= request.deadline) {
      expired_dispatch_.fetch_add(1, std::memory_order_relaxed);
      TREEWM_LOG_EVERY_N(LogLevel::kWarning, 256,
                         "serve: request expired before dispatch");
      request.done(Status::DeadlineExceeded("deadline expired before dispatch"));
      ++answered;
    } else {
      live.push_back(std::move(request));
    }
  }
  batch->clear();
  if (live.empty()) return answered;

  // Fault site: stall between batch formation and the predictor call —
  // where deadline-at-completion and mid-batch-shutdown races live.
  // discard ok: the stall's side effect is the point; firing is not an error
  (void)TREEWM_FAULT_FIRED("serve.batch.stall");

  data::Dataset rows(ensemble_->num_features());
  rows.Reserve(live.size());
  for (const QueuedRequest& request : live) {
    // Feature count was validated at submit; the label is a placeholder
    // (prediction never reads it).
    // discard ok: AddRow only fails on a feature-count mismatch, checked at
    // submit against the same immutable ensemble
    (void)rows.AddRow(request.features, data::kPositive);
  }
  const predict::VoteMatrix votes = predictor_.PredictAllVotes(rows);

  now = clock_->Now();
  for (size_t i = 0; i < live.size(); ++i) {
    QueuedRequest& request = live[i];
    if (request.deadline != kNoDeadline && now >= request.deadline) {
      expired_completion_.fetch_add(1, std::memory_order_relaxed);
      TREEWM_LOG_EVERY_N(LogLevel::kWarning, 256,
                         "serve: request expired during batch compute");
      request.done(Status::DeadlineExceeded("deadline expired during batch compute"));
      continue;
    }
    const std::span<const int8_t> row = votes.row(i);
    PredictResult result;
    result.votes.assign(row.begin(), row.end());
    int sum = 0;
    for (int8_t v : row) sum += v;
    result.label = sum >= 0 ? +1 : -1;  // same tie rule as PredictLabels
    request.done(std::move(result));
    completed_ok_.fetch_add(1, std::memory_order_relaxed);
  }
  answered += live.size();
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_rows_.fetch_add(live.size(), std::memory_order_relaxed);
  uint64_t seen = max_batch_rows_.load(std::memory_order_relaxed);
  while (live.size() > seen &&
         !max_batch_rows_.compare_exchange_weak(seen, live.size(),
                                                std::memory_order_relaxed)) {
  }
  return answered;
}

void ServingFrontEnd::DispatcherLoop() {
  // PopBatch blocks WITHOUT dispatch_mutex_: admission must never wait
  // behind a batch in flight. It returns false once shut down and drained.
  std::vector<QueuedRequest> batch;
  while (queue_.PopBatch(&batch)) {
    MutexLock lock(&dispatch_mutex_);
    DispatchLocked(&batch);
  }
}

void ServingFrontEnd::Shutdown() {
  bool expected = false;
  if (!shutdown_started_.compare_exchange_strong(expected, true)) return;
  queue_.Shutdown();
  if (dispatcher_pool_ != nullptr) {
    // Drain-on-shutdown joins the pool only after DispatcherLoop returns,
    // and the loop exits once the queue is shut down and drained.
    dispatcher_pool_->Shutdown();
  } else {
    // Manual mode: drain inline so every accepted request is answered.
    Pump(/*force_flush=*/true);
  }
}

size_t ServingFrontEnd::Pump(bool force_flush) {
  MutexLock lock(&dispatch_mutex_);
  size_t answered = 0;
  std::vector<QueuedRequest> batch;
  while (queue_.TryPopBatch(force_flush, &batch)) answered += DispatchLocked(&batch);
  return answered;
}

ServingStats ServingFrontEnd::stats() const {
  const AdmissionQueueStats queue_stats = queue_.stats();
  ServingStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = queue_stats.pushed;
  s.completed_ok = completed_ok_.load(std::memory_order_relaxed);
  s.rejected_full = queue_stats.rejected_full;
  s.rejected_shed = queue_stats.rejected_shed;
  s.rejected_shutdown = queue_stats.rejected_shutdown;
  s.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  s.expired_dispatch = expired_dispatch_.load(std::memory_order_relaxed);
  s.expired_completion = expired_completion_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_rows = batched_rows_.load(std::memory_order_relaxed);
  s.queue_high_water = queue_stats.high_water;
  s.max_batch_rows = max_batch_rows_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace treewm::serve
