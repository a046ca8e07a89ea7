// Annotated Mutex / MutexLock / CondVar wrappers over the std primitives.
//
// The std locking types carry no capability attributes, so clang's
// -Wthread-safety analysis cannot see through them. These wrappers are the
// project's ONLY sanctioned locking primitives outside common/ (enforced
// by tools/lint_invariants.py): they behave exactly like std::mutex /
// std::lock_guard / std::condition_variable, but every acquisition and
// release is visible to the analysis, so an access to a
// TREEWM_GUARDED_BY(mutex_) field without the lock is a compile error in
// the static-analysis CI job.
//
// Condition waits: prefer explicit `while (!condition) cv.Wait(lock);`
// loops over predicate-lambda overloads — clang analyzes a lambda body as
// a separate function that does not inherit the caller's held locks, so
// guarded-field reads inside a wait predicate would produce (spurious)
// warnings. The while-loop form keeps the accesses in the annotated scope
// and is what every migrated call site uses.

#ifndef TREEWM_COMMON_MUTEX_H_
#define TREEWM_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/annotations.h"

namespace treewm {

/// Exclusive mutex (std::mutex) visible to thread-safety analysis.
class TREEWM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// RAII scoped lock over Mutex (std::unique_lock underneath so CondVar can
/// park on it). Acquires in the constructor, releases in the destructor.
class TREEWM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) TREEWM_ACQUIRE(mu) : lock_(mu->mu_) {}
  ~MutexLock() TREEWM_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to MutexLock. The capability stays held across
/// a wait from the analysis' point of view — which is the correct end
/// state: Wait atomically releases and reacquires before returning.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified. Spurious wakeups happen: always wait in a
  /// `while (!condition)` loop.
  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }

  /// Blocks until notified or `timeout` elapses. Returns
  /// std::cv_status::timeout when the wait timed out — callers re-check
  /// their condition either way.
  std::cv_status WaitFor(MutexLock& lock, std::chrono::nanoseconds timeout) {
    return cv_.wait_for(lock.lock_, timeout);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace treewm

#endif  // TREEWM_COMMON_MUTEX_H_
