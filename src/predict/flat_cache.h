// Lock-free lazy construction of a model's packed inference image.
//
// The model classes (DecisionTree, RandomForest, Gbdt) are immutable after
// construction, so each carries a `mutable FlatCacheSlot` filled on the
// first batch call. Publication uses the shared_ptr atomic free functions
// (still provided in C++20, though deprecated in favour of
// std::atomic<shared_ptr>, which this toolchain's library predates): a
// cache hit is one acquire-load, concurrent first calls may both build (the
// images are identical; last writer wins and the loser's copy is dropped),
// and — unlike a global mutex — unrelated models never serialize against
// each other. FlatCacheSlot also makes the holders' value semantics
// race-free: copying/moving reads the source slot atomically, so a copy
// taken while another thread publishes the first image is well defined
// (the copy sees the image or an empty slot, never a torn one).
//
// This header is intentionally light (no flat_ensemble.h) so the model
// headers can embed the slot; LazyFlat is instantiated from .cc files that
// see the complete FlatEnsemble.
//
// Concurrency: deliberately OUTSIDE the TREEWM_GUARDED_BY capability model
// (src/common/annotations.h) — there is no lock for the analysis to track;
// correctness rests on the acquire/release pairs above, which TSan (CI's
// tsan job, tests/test_flat_predict.cc) checks instead. New shared state
// should prefer the annotated common/mutex.h wrappers; atomics are for
// proven hot paths like this one.

#ifndef TREEWM_PREDICT_FLAT_CACHE_H_
#define TREEWM_PREDICT_FLAT_CACHE_H_

#include <memory>
#include <utility>

namespace treewm::predict {

class FlatEnsemble;

/// Holder for a lazily built FlatEnsemble with atomic publication and
/// copy/move that goes through the same atomics.
class FlatCacheSlot {
 public:
  FlatCacheSlot() = default;
  FlatCacheSlot(const FlatCacheSlot& other)
      : ptr_(std::atomic_load_explicit(&other.ptr_, std::memory_order_acquire)) {}
  /// Moving shares rather than steals: the source stays usable and the
  /// slot stays race-free without a distinct move protocol.
  FlatCacheSlot(FlatCacheSlot&& other) noexcept
      : FlatCacheSlot(static_cast<const FlatCacheSlot&>(other)) {}
  FlatCacheSlot& operator=(const FlatCacheSlot& other) {
    std::atomic_store_explicit(
        &ptr_, std::atomic_load_explicit(&other.ptr_, std::memory_order_acquire),
        std::memory_order_release);
    return *this;
  }
  FlatCacheSlot& operator=(FlatCacheSlot&& other) noexcept {
    return *this = static_cast<const FlatCacheSlot&>(other);
  }

  std::shared_ptr<const FlatEnsemble> Load() const {
    return std::atomic_load_explicit(&ptr_, std::memory_order_acquire);
  }
  void Store(std::shared_ptr<const FlatEnsemble> value) {
    std::atomic_store_explicit(&ptr_, std::move(value), std::memory_order_release);
  }

 private:
  std::shared_ptr<const FlatEnsemble> ptr_;
};

/// Returns the slot's image, building and publishing it on first use.
template <typename BuildFn>
std::shared_ptr<const FlatEnsemble> LazyFlat(FlatCacheSlot* slot, const BuildFn& build) {
  std::shared_ptr<const FlatEnsemble> cached = slot->Load();
  if (cached != nullptr) return cached;
  auto built = std::make_shared<const FlatEnsemble>(build());
  slot->Store(built);
  return built;
}

}  // namespace treewm::predict

#endif  // TREEWM_PREDICT_FLAT_CACHE_H_
