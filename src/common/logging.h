// Minimal leveled logging to stderr.
//
// The library logs only warnings (an incomplete embed, a rejected submit,
// shed or expired requests); everything below kWarning is silent by
// default. Not thread-buffered: each call writes one line.

#ifndef TREEWM_COMMON_LOGGING_H_
#define TREEWM_COMMON_LOGGING_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace treewm {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kOff = 4 };

/// Sets the global minimum level actually emitted (default: kWarning).
void SetLogLevel(LogLevel level);

/// Returns the current global log level.
LogLevel GetLogLevel();

/// Emits one log line "[LEVEL] message" if `level` >= the global level.
void Log(LogLevel level, const std::string& message);

/// Log(LogLevel::kWarning, message).
void LogWarning(const std::string& message);

/// Per-call-site counter behind TREEWM_LOG_EVERY_N. One instance per site
/// (the macro makes a function-local static); safe to hit from any thread.
struct LogEveryNState {
  std::atomic<uint64_t> count{0};
};

/// Returns true on the 1st, (n+1)th, (2n+1)th... call against `state`
/// (n < 1 is clamped to 1 — every call logs). When it returns true,
/// *suppressed is set to the number of calls swallowed since the last
/// emission, so the log line can account for what was dropped.
bool ShouldLogEveryN(LogEveryNState* state, uint64_t n, uint64_t* suppressed);

}  // namespace treewm

/// Rate-limited logging for events that arrive at traffic rate (shed
/// requests, expired deadlines): emits `message` on every Nth call at this
/// call site, annotated with the count suppressed in between, so overload
/// reporting cannot itself become the bottleneck. `message` is only
/// evaluated when the line is actually emitted.
#define TREEWM_LOG_EVERY_N(level, n, message)                                  \
  do {                                                                         \
    static ::treewm::LogEveryNState _treewm_log_every_n_state;                 \
    uint64_t _treewm_suppressed = 0;                                           \
    if (::treewm::ShouldLogEveryN(&_treewm_log_every_n_state, (n),             \
                                  &_treewm_suppressed)) {                      \
      std::string _treewm_line = (message);                                    \
      if (_treewm_suppressed > 0) {                                            \
        _treewm_line += " [+" + std::to_string(_treewm_suppressed) +           \
                        " similar suppressed]";                                \
      }                                                                        \
      ::treewm::Log((level), _treewm_line);                                    \
    }                                                                          \
  } while (false)

#endif  // TREEWM_COMMON_LOGGING_H_
