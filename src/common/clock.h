// Injectable time source for deadline and backoff logic.
//
// Serving-layer components (the admission queue and its batch delay, retry
// backoff) never read std::chrono directly: they take a Clock*, so every
// deadline decision is unit-testable against a deterministic FakeClock
// without sleeping. Time is a monotonic nanosecond count from an
// unspecified epoch — absolute deadlines are computed as Now() + timeout
// and compared against later Now() readings from the SAME clock, never
// across clocks.

#ifndef TREEWM_COMMON_CLOCK_H_
#define TREEWM_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>
#include <thread>

#include "common/annotations.h"
#include "common/mutex.h"

namespace treewm {

/// Monotonic time source. Implementations must be thread-safe.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Nanoseconds since this clock's (unspecified, fixed) epoch. Never
  /// decreases.
  virtual std::chrono::nanoseconds Now() const = 0;

  /// Blocks the calling thread for `duration` of this clock's time. The
  /// FakeClock advances instead of blocking, so retry/backoff loops written
  /// against SleepFor are deterministic and instant under test.
  virtual void SleepFor(std::chrono::nanoseconds duration) = 0;

  /// Process-wide steady-clock instance (never null, never destroyed).
  static Clock* System();
};

/// Real time via std::chrono::steady_clock.
class SystemClock final : public Clock {
 public:
  std::chrono::nanoseconds Now() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now().time_since_epoch());
  }

  void SleepFor(std::chrono::nanoseconds duration) override {
    if (duration.count() > 0) std::this_thread::sleep_for(duration);
  }
};

inline Clock* Clock::System() {
  static SystemClock* clock = new SystemClock();
  return clock;
}

/// Deterministic manual clock for tests: time moves only via Advance() /
/// SleepFor(). Thread-safe so it can be shared with components under test.
class FakeClock final : public Clock {
 public:
  explicit FakeClock(std::chrono::nanoseconds start = std::chrono::nanoseconds{0})
      : now_(start) {}

  std::chrono::nanoseconds Now() const override TREEWM_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return now_;
  }

  /// A fake sleep is an instant time jump — deadline logic sees the elapsed
  /// time without the test paying it.
  void SleepFor(std::chrono::nanoseconds duration) override { Advance(duration); }

  /// Moves time forward by `delta` (negative deltas are ignored: the clock
  /// is monotonic by contract).
  void Advance(std::chrono::nanoseconds delta) TREEWM_EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    if (delta.count() > 0) now_ += delta;
  }

 private:
  mutable Mutex mutex_;
  std::chrono::nanoseconds now_ TREEWM_GUARDED_BY(mutex_);
};

}  // namespace treewm

#endif  // TREEWM_COMMON_CLOCK_H_
