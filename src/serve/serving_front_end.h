// In-process verification/prediction serving front-end.
//
// Accepts single-instance requests, coalesces them into row blocks for the
// batched flat-ensemble engine, and returns per-request results — wrapped
// in a robustness envelope:
//
//   * bounded admission (AdmissionQueue): every request gets a slot or a
//     typed Status (ResourceExhausted / FailedPrecondition /
//     InvalidArgument) — no unbounded queues, no silent drops;
//   * per-request deadlines checked at dispatch (expired requests are
//     answered DeadlineExceeded instead of wasting a batch slot) and at
//     completion;
//   * load shedding: past the queue's shed high-water mark new arrivals
//     are rejected, while the backlog already queued is served as full
//     batches;
//   * drain-on-shutdown: Shutdown() stops admission and answers every
//     in-flight request before returning — each request's completion
//     callback is called exactly once.
//
// Determinism contract: a request's successful PredictResult depends only
// on its feature vector — never on batch packing, thread schedule, queue
// depth, or armed faults — because BatchPredictor's per-row outputs are
// bit-exact and row-independent. Requests the envelope refuses fail closed
// with a typed Status. tests/test_serve.cc asserts this across thread
// counts × batch shapes × fault schedules.

#ifndef TREEWM_SERVE_SERVING_FRONT_END_H_
#define TREEWM_SERVE_SERVING_FRONT_END_H_

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "common/annotations.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "predict/batch_predictor.h"
#include "serve/admission_queue.h"
#include "serve/request.h"

namespace treewm::serve {

struct ServingOptions {
  /// Admission bounds, load shedding and the batching rule.
  AdmissionQueueOptions queue;
  /// Tiling and pool for the batched predictor; they affect speed, never
  /// results. The pool must outlive the front-end.
  predict::BatchOptions predictor;
  /// Time source for deadlines and the batch delay (nullptr = system
  /// clock). With a FakeClock, construct with start_dispatcher = false and
  /// drive Pump() manually — the background dispatcher parks on real
  /// condition variables.
  Clock* clock = nullptr;
  /// Spawn the background dispatcher thread. false = manual mode: the test
  /// (or embedding event loop) calls Pump() itself.
  bool start_dispatcher = true;
};

/// Point-in-time counters snapshot (all requests accounted: admitted ==
/// completed_ok + expired_* once drained; submitted == admitted + rejected).
struct ServingStats {
  uint64_t submitted = 0;            ///< Submit calls
  uint64_t admitted = 0;             ///< accepted into the queue
  uint64_t completed_ok = 0;         ///< answered with a PredictResult
  uint64_t rejected_full = 0;        ///< queue at capacity (ResourceExhausted)
  uint64_t rejected_shed = 0;        ///< over shed high-water (ResourceExhausted)
  uint64_t rejected_shutdown = 0;    ///< after Shutdown (FailedPrecondition)
  uint64_t rejected_invalid = 0;     ///< bad feature count (InvalidArgument)
  /// Always 0: nothing expires at admission. Kept only because the
  /// end-to-end benchmark (e2e_bench/harness.cc) still reads it.
  uint64_t expired_admission = 0;
  uint64_t expired_dispatch = 0;     ///< expired waiting in the queue
  uint64_t expired_completion = 0;   ///< expired during batch compute
  uint64_t batches = 0;              ///< batches dispatched to the predictor
  uint64_t batched_rows = 0;         ///< rows across those batches
  /// Always 0: the batch delay is never switched off. Kept only because the
  /// end-to-end benchmark (e2e_bench/harness.cc) still reads it.
  uint64_t degraded_flushes = 0;
  uint64_t queue_high_water = 0;     ///< max admission-queue depth observed
  uint64_t max_batch_rows = 0;       ///< largest batch dispatched
};

/// The in-process serving front-end over one immutable ensemble image.
class ServingFrontEnd {
 public:
  /// Validates options and the ensemble (classification only — per-tree ±1
  /// votes are what verification consumes) and starts the dispatcher.
  [[nodiscard]] static Result<std::unique_ptr<ServingFrontEnd>> Create(
      std::shared_ptr<const predict::FlatEnsemble> ensemble,
      ServingOptions options);

  /// Shuts down (drains) if the caller has not already.
  ~ServingFrontEnd();

  ServingFrontEnd(const ServingFrontEnd&) = delete;
  ServingFrontEnd& operator=(const ServingFrontEnd&) = delete;

  /// Submits one instance; `done` is called exactly once with the result
  /// or a typed error. Refusals (wrong feature count, full or shedding
  /// queue, after Shutdown) call it before Submit returns, on the caller's
  /// thread. Admitted requests complete on the dispatcher thread (or the
  /// Pump/Shutdown caller) under dispatch_mutex_. Thread-safe.
  void Submit(std::span<const float> x, const RequestOptions& options,
              PredictCallback done);

  /// Future wrapper over Submit.
  std::future<Result<PredictResult>> SubmitPredict(std::span<const float> x,
                                                   const RequestOptions& options = {});

  /// Blocking convenience wrapper over SubmitPredict.
  [[nodiscard]] Result<PredictResult> Predict(std::span<const float> x,
                                const RequestOptions& options = {});

  /// Stops admission, drains the queue (every accepted request is
  /// answered), and joins the dispatcher. Idempotent.
  void Shutdown() TREEWM_EXCLUDES(dispatch_mutex_);

  /// Manual-mode pump: dispatches batches while one is due (with
  /// `force_flush`, until the queue is empty). Returns the number of
  /// requests answered. Only meaningful with start_dispatcher = false.
  size_t Pump(bool force_flush = false) TREEWM_EXCLUDES(dispatch_mutex_);

  ServingStats stats() const;

  size_t num_features() const { return ensemble_->num_features(); }
  size_t num_trees() const { return ensemble_->num_trees(); }

 private:
  ServingFrontEnd(std::shared_ptr<const predict::FlatEnsemble> ensemble,
                  const ServingOptions& options);

  void DispatcherLoop() TREEWM_EXCLUDES(dispatch_mutex_);
  /// Dispatches one popped batch (consuming *batch): expires stale
  /// requests, runs the predictor, calls every callback. Returns requests
  /// answered.
  size_t DispatchLocked(std::vector<QueuedRequest>* batch)
      TREEWM_REQUIRES(dispatch_mutex_);

  std::shared_ptr<const predict::FlatEnsemble> ensemble_;
  Clock* clock_;
  predict::BatchPredictor predictor_;
  AdmissionQueue queue_;

  /// Serializes dispatch: one batch runs at a time (the dispatcher thread,
  /// OR manual Pump()/Shutdown-drain), so one front-end's callbacks never
  /// run concurrently — and even a misuse (concurrent Pump calls) is safe
  /// instead of a data race. Never held while blocking on the queue.
  mutable Mutex dispatch_mutex_;

  /// Hosts DispatcherLoop (1 worker); null in manual (Pump) mode. A pool,
  /// not a naked std::thread: drain-on-shutdown is the join protocol.
  std::unique_ptr<ThreadPool> dispatcher_pool_;
  std::atomic<bool> shutdown_started_{false};
  std::atomic<uint64_t> next_id_{1};

  // Counters not already tracked by the queue (see stats()).
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_invalid_{0};
  std::atomic<uint64_t> expired_dispatch_{0};
  std::atomic<uint64_t> expired_completion_{0};
  std::atomic<uint64_t> completed_ok_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_rows_{0};
  std::atomic<uint64_t> max_batch_rows_{0};
};

}  // namespace treewm::serve

#endif  // TREEWM_SERVE_SERVING_FRONT_END_H_
