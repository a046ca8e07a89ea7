// Blocking keep-alive client for the wire protocol.
//
// One SocketClient owns one loopback connection and speaks strict
// request/response: Predict() writes a predict-request frame, then reads
// frames until the matching response or error arrives. The connection is
// reused across calls (keep-alive); any transport or framing failure closes
// it, and the next call reconnects.
//
// Retry discipline (PredictWithRetry): only overload pushback
// (ResourceExhausted) and connection-reset-class transport failures
// (IoError) are retried — predictions are pure functions of their features,
// so resending over a fresh connection is safe. Deadline, validation, and
// parse failures are terminal, exactly as in the in-process retry helper.

#ifndef TREEWM_SERVE_WIRE_SOCKET_CLIENT_H_
#define TREEWM_SERVE_WIRE_SOCKET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "serve/request.h"
#include "serve/retry.h"
#include "serve/serving_front_end.h"
#include "serve/wire/frame.h"
#include "serve/wire/sockets.h"

namespace treewm::serve::wire {

struct SocketClientOptions {
  /// Server's loopback port.
  uint16_t port = 0;
  /// Blocking-read ceiling per recv; expiry surfaces as Status::Timeout.
  /// Also bounds how long a Predict() call can hang on a silent server.
  std::chrono::nanoseconds recv_timeout = std::chrono::seconds(5);
  /// Frame-body ceiling for the response decoder.
  size_t max_body_bytes = kDefaultMaxBodyBytes;
  /// Time source for retry backoff (nullptr = system clock).
  Clock* clock = nullptr;
  /// Model to address predict requests to. Empty = speak protocol v1 (the
  /// server routes to its default model); non-empty = v2 frames carrying
  /// this id. ListModels() always speaks v2 regardless.
  std::string model_id;
};

/// True for failures PredictWithRetry resends: overload pushback or a
/// reset-class transport error (the request is idempotent).
bool IsWireRetryableStatus(const Status& status);

class SocketClient {
 public:
  explicit SocketClient(SocketClientOptions options);
  ~SocketClient();

  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  /// Dials the server if not already connected. Predict()/Ping() call this
  /// implicitly; it exists so tests and the CLI can separate connection
  /// failures from protocol failures.
  [[nodiscard]] Status Connect();

  /// Drops the connection (next call reconnects).
  void Close();

  bool connected() const { return fd_.valid(); }

  /// One round-trip over the keep-alive connection. `timeout` rides the
  /// request frame and becomes the server-side RequestOptions deadline
  /// (kNoDeadline = none). Server refusals come back as their original
  /// typed Status (ResourceExhausted, DeadlineExceeded, ...); transport and
  /// framing failures close the connection and return IoError/ParseError.
  [[nodiscard]] Result<PredictResult> Predict(
      std::span<const float> features,
      std::chrono::nanoseconds timeout = kNoDeadline);

  /// Predict() wrapped in capped-backoff retries of ResourceExhausted and
  /// reset-class IoError (reconnecting first when the connection dropped).
  [[nodiscard]] Result<PredictResult> PredictWithRetry(
      std::span<const float> features, const RetryPolicy& policy,
      std::chrono::nanoseconds timeout = kNoDeadline);

  /// Liveness round-trip: sends a ping, expects the token echoed back.
  [[nodiscard]] Status Ping();

  /// Lists the server's models (always a v2 round-trip); rows come back in
  /// the server's deterministic (id-sorted) order.
  [[nodiscard]] Result<std::vector<ModelInfoMsg>> ListModels();

  /// Round-trips completed on the current connection (diagnostics).
  uint64_t round_trips() const { return round_trips_; }

 private:
  /// Writes `frame` fully, then reads until one complete frame arrives.
  [[nodiscard]] Result<Frame> RoundTrip(std::span<const uint8_t> frame);
  [[nodiscard]] Status WriteAll(std::span<const uint8_t> bytes);
  [[nodiscard]] Result<Frame> ReadFrame();

  SocketClientOptions options_;
  Clock* clock_;
  Fd fd_;
  FrameDecoder decoder_;
  uint64_t next_request_id_ = 1;
  uint64_t round_trips_ = 0;
};

}  // namespace treewm::serve::wire

#endif  // TREEWM_SERVE_WIRE_SOCKET_CLIENT_H_
