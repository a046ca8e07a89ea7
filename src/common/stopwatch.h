// Wall-clock stopwatch for benchmark harnesses.

#ifndef TREEWM_COMMON_STOPWATCH_H_
#define TREEWM_COMMON_STOPWATCH_H_

#include <chrono>

namespace treewm {

/// Measures elapsed wall-clock time from construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace treewm

#endif  // TREEWM_COMMON_STOPWATCH_H_
