#include "common/thread_pool.h"

#include <atomic>

#include "common/fault_injection.h"

namespace treewm {

namespace {
/// The pool (if any) whose WorkerLoop is running on this thread.
thread_local const ThreadPool* t_current_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

Status ThreadPool::Submit(std::function<void()> task) {
  if (TREEWM_FAULT_FIRED("thread_pool.submit.reject")) {
    return Status::FailedPrecondition("injected submit rejection");
  }
  {
    MutexLock lock(&mutex_);
    if (shutting_down_) {
      return Status::FailedPrecondition("thread pool is shut down");
    }
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.NotifyOne();
  return Status::OK();
}

void ThreadPool::Wait() {
  MutexLock lock(&mutex_);
  while (in_flight_ != 0) all_done_.Wait(lock);
}

void ThreadPool::Shutdown() {
  bool do_join = false;
  {
    MutexLock lock(&mutex_);
    shutting_down_ = true;
    if (!joined_) {
      joined_ = true;
      do_join = true;
    }
  }
  task_ready_.NotifyAll();
  if (do_join) {
    for (auto& worker : workers_) worker.join();
    all_done_.NotifyAll();
  } else {
    // A concurrent Shutdown already owns the join; wait for the drain so
    // every caller observes the same post-condition (all tasks ran).
    MutexLock lock(&mutex_);
    while (in_flight_ != 0) all_done_.Wait(lock);
  }
}

bool ThreadPool::IsShutdown() const {
  MutexLock lock(&mutex_);
  return shutting_down_;
}

bool ThreadPool::OnWorkerThread() const { return t_current_pool == this; }

void ThreadPool::WorkerLoop() {
  t_current_pool = this;
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(&mutex_);
      while (!shutting_down_ && tasks_.empty()) task_ready_.Wait(lock);
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // Fault site: simulate a descheduled/stalled worker between dequeue and
    // execution — the window where batching and shutdown races live.
    // discard ok: the stall's side effect is the point; firing is not an error
    (void)TREEWM_FAULT_FIRED("thread_pool.worker.stall");
    task();
    {
      MutexLock lock(&mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(std::thread::hardware_concurrency() > 0
                             ? std::thread::hardware_concurrency()
                             : 4);
  return pool;
}

size_t ParallelWidth(const ThreadPool* pool) {
  // A caller on one of `pool`'s workers must not block on sub-tasks:
  // that deadlocks once every worker does it (nested ParallelFor).
  if (pool == nullptr || pool->OnWorkerThread()) return 1;
  return pool->num_threads();
}

void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& body) {
  const size_t width = ParallelWidth(pool);
  if (count <= 1 || width == 1) {
    for (size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::atomic<size_t> next{0};
  Mutex done_mutex;
  CondVar done_cv;
  const size_t shards = std::min(count, width);
  size_t pending = shards;  // guarded by done_mutex (local: annotation by comment)
  auto work = [&] {
    size_t i;
    while ((i = next.fetch_add(1)) < count) body(i);
    // Decrement and notify under the lock: the waiting caller owns these
    // stack objects and may destroy them the moment it observes
    // pending == 0, so the last worker must not touch them afterwards.
    MutexLock lock(&done_mutex);
    if (--pending == 0) done_cv.NotifyAll();
  };
  for (size_t s = 0; s < shards; ++s) {
    // A rejected shard (pool shut down mid-loop, or an injected fault) runs
    // on the calling thread: iterations are claimed via `next`, so work is
    // never lost or duplicated, only less parallel.
    if (!pool->Submit(work).ok()) work();
  }
  MutexLock lock(&done_mutex);
  while (pending != 0) done_cv.Wait(lock);
}

}  // namespace treewm
