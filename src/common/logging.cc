#include "common/logging.h"

#include <atomic>
#include <cstdio>

#include "common/mutex.h"

namespace treewm {

namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarning};
// Serializes stderr writes only (no guarded state): one log call = one
// un-interleaved line.
Mutex g_mutex;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }

void Log(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(GetLogLevel())) return;
  MutexLock lock(&g_mutex);
  std::fprintf(stderr, "[%s] %s\n", LevelName(level), message.c_str());
}

bool ShouldLogEveryN(LogEveryNState* state, uint64_t n, uint64_t* suppressed) {
  if (n < 1) n = 1;
  const uint64_t count = state->count.fetch_add(1, std::memory_order_relaxed);
  if (count % n != 0) return false;
  // count is the pre-increment value: 0 on the first-ever call (nothing
  // suppressed yet), a multiple of n afterwards (n - 1 calls swallowed).
  *suppressed = count == 0 ? 0 : n - 1;
  return true;
}

void LogWarning(const std::string& message) { Log(LogLevel::kWarning, message); }

}  // namespace treewm
