// Fixed-size thread pool with a deterministic ParallelFor helper.
//
// Forest training parallelizes across trees. Determinism is preserved by
// assigning each work item its own pre-forked RNG, so the schedule cannot
// change results.
//
// Shutdown contract (the serving layer leans on this): Shutdown() stops
// admission and DRAINS — every task accepted before it runs to completion,
// tasks submitted after it are rejected with FailedPrecondition, and no
// accepted task is ever silently dropped. The destructor performs the same
// drain.

#ifndef TREEWM_COMMON_THREAD_POOL_H_
#define TREEWM_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"

namespace treewm {

/// A fixed set of worker threads consuming a FIFO task queue.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1; 0 is clamped to 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks and joins the workers (same as Shutdown()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Fails with FailedPrecondition once Shutdown() has
  /// begun; an OK return guarantees the task will run. Discarding the
  /// Status drops the only signal that the task will never run — callers
  /// must handle rejection (e.g. run inline) or justify the discard.
  [[nodiscard]] Status Submit(std::function<void()> task) TREEWM_EXCLUDES(mutex_);

  /// Blocks until every task submitted so far has finished.
  void Wait() TREEWM_EXCLUDES(mutex_);

  /// Stops accepting tasks, runs everything already queued, and joins the
  /// workers. Idempotent and safe to call concurrently with Submit (the
  /// race resolves to either accepted-and-run or rejected-with-Status).
  void Shutdown() TREEWM_EXCLUDES(mutex_);

  /// Number of worker threads.
  size_t num_threads() const { return workers_.size(); }

  /// Returns a process-wide pool sized to the hardware concurrency.
  static ThreadPool& Global();

  /// True when the calling thread is one of THIS pool's workers. ParallelFor
  /// uses it to run inline instead of deadlocking: a worker that blocked
  /// waiting on sub-tasks would occupy the very slot needed to run them.
  bool OnWorkerThread() const;

 private:
  void WorkerLoop() TREEWM_EXCLUDES(mutex_);

  // Written only by the constructor, joined under the joined_ protocol;
  // otherwise immutable, so num_threads()/OnWorkerThread() read it freely.
  std::vector<std::thread> workers_;

  mutable Mutex mutex_;
  CondVar task_ready_;
  CondVar all_done_;
  std::queue<std::function<void()>> tasks_ TREEWM_GUARDED_BY(mutex_);
  size_t in_flight_ TREEWM_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ TREEWM_GUARDED_BY(mutex_) = false;
  /// Workers joined exactly once: the Shutdown call that flips this owns
  /// the join.
  bool joined_ TREEWM_GUARDED_BY(mutex_) = false;
};

/// How many iterations a ParallelFor on `pool` runs at once: 1 for nullptr
/// (serial), for a one-worker pool, or when the caller is already one of
/// `pool`'s workers (a nested call runs inline); otherwise num_threads().
size_t ParallelWidth(const ThreadPool* pool);

/// Runs body(i) for i in [0, count) across `pool`, blocking until all
/// iterations complete. body must be safe to invoke concurrently for distinct
/// indices. Runs inline when count <= 1 or ParallelWidth(pool) == 1; a
/// shut-down pool's rejected shards also run inline.
void ParallelFor(ThreadPool* pool, size_t count, const std::function<void(size_t)>& body);

}  // namespace treewm

#endif  // TREEWM_COMMON_THREAD_POOL_H_
