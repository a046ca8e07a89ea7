// The pool a thread sweep runs each width on. Configs take a caller-owned
// ThreadPool*; the sweeps keep their widths and map them here.

#ifndef TREEWM_TESTS_POOL_OF_WIDTH_H_
#define TREEWM_TESTS_POOL_OF_WIDTH_H_

#include <cstddef>
#include <memory>

#include "common/thread_pool.h"

namespace treewm {

/// Width 1 is serial (nullptr), 0 is the process pool, and k > 1 is a
/// ThreadPool(k) that `owned` keeps alive until the next call.
inline ThreadPool* PoolOfWidth(size_t width, std::unique_ptr<ThreadPool>* owned) {
  owned->reset();
  if (width == 1) return nullptr;
  if (width == 0) return &ThreadPool::Global();
  *owned = std::make_unique<ThreadPool>(width);
  return owned->get();
}

}  // namespace treewm

#endif  // TREEWM_TESTS_POOL_OF_WIDTH_H_
