// Fixture: library code building a pool of its own to fan work out on,
// instead of taking the caller's ThreadPool*. Each marked line must fire
// exactly private-pool.
// NEVER compiled — consumed by tools/lint_invariants.py --self-test.

#include <memory>

#include "common/thread_pool.h"

namespace fixture {

inline void Fit(size_t num_threads) {
  auto local = std::make_unique<treewm::ThreadPool>(num_threads);  // expect-lint: private-pool
  treewm::ThreadPool four(4);  // expect-lint: private-pool
  treewm::ThreadPool* raw = new treewm::ThreadPool(num_threads);  // expect-lint: private-pool
  delete raw;
}

// A dedicated thread is a one-worker pool; must NOT fire.
inline void Dedicated() {
  auto loop = std::make_unique<treewm::ThreadPool>(1);
  treewm::ThreadPool dispatcher(1);
}

// Fanning out on the caller's pool builds nothing; must NOT fire.
inline void FanOut(treewm::ThreadPool* pool) {
  treewm::ParallelFor(pool, 8, [](size_t) {});
}

}  // namespace fixture
