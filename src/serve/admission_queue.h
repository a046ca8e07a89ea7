// Bounded admission queue with explicit backpressure and the batching rule.
//
// The first robustness boundary of the serving front-end: every arriving
// request either gets a queue slot or a typed Status saying why not —
// ResourceExhausted when the queue is full or past the shed high-water
// mark, FailedPrecondition after shutdown. Admission never blocks and never
// drops an accepted item: Shutdown() closes admission but the consumer
// drains every queued request (drain-on-shutdown), so each one is still
// answered.
//
// Load shedding starts BEFORE the queue is full: with shed_high_water set,
// pushes are rejected once depth reaches the mark, keeping queueing delay
// bounded under sustained overload instead of serving every request late
// (the classic full-queue collapse).
//
// The queue also decides when a batch is due, so each request is queued
// exactly once: a batch is due when max_batch_rows requests are queued,
// when the oldest was admitted max_batch_delay ago, or after Shutdown().
// Single-instance requests amortize the per-batch costs (FloatKey row
// transform, tree-arena streaming, pool fan-out) only when packed into row
// blocks; the delay bounds what a request can pay waiting for
// co-travelers. A backlog of max_batch_rows or more always forms a full
// batch at once. Batch composition never changes results: BatchPredictor's
// per-row outputs are bit-exact and row-independent.
//
// Many producers, one consumer. PopBatch measures time on the injected
// Clock but parks on a real condition variable — use it with the
// SystemClock. FakeClock-driven unit tests use the non-blocking
// TryPopBatch.

#ifndef TREEWM_SERVE_ADMISSION_QUEUE_H_
#define TREEWM_SERVE_ADMISSION_QUEUE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/annotations.h"
#include "common/clock.h"
#include "common/mutex.h"
#include "common/status.h"
#include "serve/request.h"

namespace treewm::serve {

/// What Push does when the queue is at capacity. kReject (fail immediately
/// with ResourceExhausted) is the only policy; the enum and
/// AdmissionQueueOptions::policy remain only because the end-to-end
/// benchmark (e2e_bench/serve.cc) still sets them.
enum class OverflowPolicy {
  kReject,
};

struct AdmissionQueueOptions {
  /// Maximum queued (not yet popped) requests; >= 1.
  size_t capacity = 1024;
  /// Always kReject (see OverflowPolicy); read by nothing.
  OverflowPolicy policy = OverflowPolicy::kReject;
  /// Queue depth at which load shedding begins (0 = disabled). Sheds are
  /// ResourceExhausted like full-queue rejects but counted separately.
  size_t shed_high_water = 0;
  /// A batch is due as soon as this many requests are queued (>= 1).
  size_t max_batch_rows = 64;
  /// A batch is due once the oldest queued request was admitted this long
  /// ago. Zero = due whenever the queue is non-empty.
  std::chrono::nanoseconds max_batch_delay = std::chrono::microseconds(500);
};

/// Counters snapshot; all monotonically increasing except high_water.
struct AdmissionQueueStats {
  uint64_t pushed = 0;             ///< accepted into the queue
  uint64_t rejected_full = 0;      ///< queue at capacity
  uint64_t rejected_shed = 0;      ///< over shed_high_water
  uint64_t rejected_shutdown = 0;  ///< push after Shutdown()
  uint64_t popped = 0;
  uint64_t high_water = 0;         ///< max depth ever observed
};

/// Bounded FIFO of admitted requests; many producers, one consumer.
class AdmissionQueue {
 public:
  /// `clock` times the batch delay against each request's admitted_at; it
  /// must be non-null and outlive the queue.
  AdmissionQueue(AdmissionQueueOptions options, Clock* clock);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admits `item` or refuses it with a typed Status. Moves from `item`
  /// only on success: on a non-OK return the caller still owns it — and
  /// its callback, which the caller must call.
  /// Fault site "serve.admission.full": a fired hit behaves as an
  /// instantaneous full queue regardless of actual depth.
  [[nodiscard]] Status Push(QueuedRequest&& item) TREEWM_EXCLUDES(mutex_);

  /// Blocks until a batch is due, then replaces *out with up to
  /// max_batch_rows requests in FIFO order. Returns false only once the
  /// queue is shut down and drained.
  bool PopBatch(std::vector<QueuedRequest>* out) TREEWM_EXCLUDES(mutex_);

  /// Non-blocking PopBatch on the injected clock: pops a batch if one is
  /// due now — or, with `force`, whatever is queued (up to max_batch_rows).
  /// Returns false, leaving *out untouched, when nothing is popped.
  bool TryPopBatch(bool force, std::vector<QueuedRequest>* out)
      TREEWM_EXCLUDES(mutex_);

  /// Closes admission and makes every queued request due; once the queue
  /// is empty, PopBatch returns false. Idempotent.
  void Shutdown() TREEWM_EXCLUDES(mutex_);

  AdmissionQueueStats stats() const TREEWM_EXCLUDES(mutex_);

 private:
  /// Clock time at which the queued requests form a due batch:
  /// nanoseconds::min() when due regardless of time (a full batch, or
  /// shutdown); kNoDeadline when the queue is empty, or when the delay
  /// would overflow the clock (then only a full batch or shutdown is due).
  std::chrono::nanoseconds DueAtLocked() const TREEWM_REQUIRES(mutex_);

  /// Moves up to max_batch_rows requests from the FIFO front into *out.
  void TakeBatchLocked(std::vector<QueuedRequest>* out) TREEWM_REQUIRES(mutex_);

  const AdmissionQueueOptions options_;
  Clock* const clock_;

  mutable Mutex mutex_;
  CondVar batch_due_;
  std::deque<QueuedRequest> items_ TREEWM_GUARDED_BY(mutex_);
  bool shutting_down_ TREEWM_GUARDED_BY(mutex_) = false;
  AdmissionQueueStats stats_ TREEWM_GUARDED_BY(mutex_);
};

}  // namespace treewm::serve

#endif  // TREEWM_SERVE_ADMISSION_QUEUE_H_
