// Bounded MPMC admission queue with explicit backpressure.
//
// The first robustness boundary of the serving front-end: every arriving
// request either gets a queue slot or a typed Status saying why not —
// ResourceExhausted when the queue is full or past the shed high-water
// mark, FailedPrecondition after shutdown. Admission never blocks and never
// drops an accepted item: Shutdown() closes admission but consumers drain
// every queued request (drain-on-shutdown), so each one is still answered.
//
// Load shedding starts BEFORE the queue is full: with shed_high_water set,
// pushes are rejected once depth reaches the mark, keeping queueing delay
// bounded under sustained overload instead of serving every request late
// (the classic full-queue collapse).
//
// PopUntil measures time on the injected Clock but parks on a real
// condition variable — use it with the SystemClock. FakeClock-driven unit
// tests use the non-blocking TryPop.

#ifndef TREEWM_SERVE_ADMISSION_QUEUE_H_
#define TREEWM_SERVE_ADMISSION_QUEUE_H_

#include <chrono>
#include <cstdint>
#include <deque>

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
  /// Time source for PopUntil's deadline (nullptr = system clock).
  Clock* clock = nullptr;
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

/// Bounded FIFO of admitted requests; any number of producers/consumers.
class AdmissionQueue {
 public:
  explicit AdmissionQueue(AdmissionQueueOptions options);

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admits `item` or refuses it with a typed Status. Moves from `item`
  /// only on success: on a non-OK return the caller still owns it — and
  /// its callback, which the caller must call.
  /// Fault site "serve.admission.full": a fired hit behaves as an
  /// instantaneous full queue regardless of actual depth.
  [[nodiscard]] Status Push(QueuedRequest&& item) TREEWM_EXCLUDES(mutex_);

  /// Pops the oldest request, blocking until one is available, the clock
  /// passes `until` (kNoDeadline = wait indefinitely), or the queue is shut
  /// down AND drained. A false return means timeout OR shutdown-and-drained;
  /// check IsShutdown()/depth() to distinguish.
  bool PopUntil(QueuedRequest* out, std::chrono::nanoseconds until)
      TREEWM_EXCLUDES(mutex_);

  /// Non-blocking pop.
  bool TryPop(QueuedRequest* out) TREEWM_EXCLUDES(mutex_);

  /// Closes admission. Queued requests remain poppable; once empty,
  /// PopUntil returns false. Idempotent.
  void Shutdown() TREEWM_EXCLUDES(mutex_);

  bool IsShutdown() const TREEWM_EXCLUDES(mutex_);

  /// Current queue depth.
  size_t depth() const TREEWM_EXCLUDES(mutex_);

  AdmissionQueueStats stats() const TREEWM_EXCLUDES(mutex_);

 private:
  /// Pops the FIFO front into *out if non-empty.
  bool PopLocked(QueuedRequest* out) TREEWM_REQUIRES(mutex_);

  const AdmissionQueueOptions options_;
  Clock* const clock_;

  mutable Mutex mutex_;
  CondVar item_ready_;
  std::deque<QueuedRequest> items_ TREEWM_GUARDED_BY(mutex_);
  bool shutting_down_ TREEWM_GUARDED_BY(mutex_) = false;
  AdmissionQueueStats stats_ TREEWM_GUARDED_BY(mutex_);
};

}  // namespace treewm::serve

#endif  // TREEWM_SERVE_ADMISSION_QUEUE_H_
