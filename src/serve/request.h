// Request/response shapes shared by the serving front-end components.
//
// A request is ONE instance (the single-query shape millions of clients
// send); the front-end coalesces admitted requests into row blocks for
// BatchPredictor. Each request carries its absolute deadline and the
// callback its result is delivered through — whoever drops a request MUST
// call that callback with a typed Status (fail closed, never silently).

#ifndef TREEWM_SERVE_REQUEST_H_
#define TREEWM_SERVE_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"

namespace treewm::serve {

/// Sentinel for "no deadline".
inline constexpr std::chrono::nanoseconds kNoDeadline =
    std::chrono::nanoseconds::max();

/// `start + span` for a clock reading `start` >= 0, saturated at
/// kNoDeadline instead of overflowing: a span longer than the clock can
/// count (e.g. a client's near-int64-max timeout) means "never".
inline constexpr std::chrono::nanoseconds DeadlineAfter(
    std::chrono::nanoseconds start, std::chrono::nanoseconds span) {
  return span > kNoDeadline - start ? kNoDeadline : start + span;
}

/// Per-request knobs supplied by the client.
struct RequestOptions {
  /// Relative deadline; the front-end checks it at dispatch and at
  /// completion. Zero (default) = no deadline.
  std::chrono::nanoseconds timeout{0};
};

/// The served answer for one instance: the majority-vote label plus the
/// per-tree vote sequence (the `predict.all` shape watermark verification
/// scores on). Values are bit-identical regardless of how the request was
/// batched, which threads ran it, or which faults fired around it.
struct PredictResult {
  int label = 0;                ///< majority vote (±1, ties -> +1)
  std::vector<int8_t> votes;    ///< per-tree ±1 votes
};

/// Completion channel of one request: called exactly once with the result
/// or a typed error. It runs on whichever thread answers the request (a
/// dispatcher, a Pump/Shutdown caller, or the submitter for an immediate
/// refusal), often under a serving lock — it must not block and must not
/// re-enter the front-end or registry.
using PredictCallback = std::function<void(Result<PredictResult>)>;

/// The future-API adapter: sets `*future` to the future a fresh promise
/// resolves and returns the callback that fulfils that promise.
inline PredictCallback FulfilInto(std::future<Result<PredictResult>>* future) {
  auto promise = std::make_shared<std::promise<Result<PredictResult>>>();
  *future = promise->get_future();
  return [promise](Result<PredictResult> result) {
    promise->set_value(std::move(result));
  };
}

/// One admitted in-flight request (internal to the serving layer).
struct QueuedRequest {
  uint64_t id = 0;
  std::vector<float> features;
  /// Absolute deadline on the front-end's clock (kNoDeadline = none).
  std::chrono::nanoseconds deadline = kNoDeadline;
  /// Admission timestamp; the queue's batch delay counts from here.
  std::chrono::nanoseconds admitted_at{0};
  /// Completion channel; called exactly once.
  PredictCallback done;
};

}  // namespace treewm::serve

#endif  // TREEWM_SERVE_REQUEST_H_
