// Per-connection wire state for the socket server.
//
// A Connection owns one accepted socket, its frame reassembly decoder, and
// its pending-output buffer. It is DELIBERATELY lock-free: every Connection
// is owned and driven by exactly one thread (the server's event loop):
// thread-confined state (src/common/README.md). The server never hands a
// Connection to another thread; answers that completion callbacks deliver
// from dispatcher threads are routed by connection id and applied by the
// loop.

#ifndef TREEWM_SERVE_WIRE_CONNECTION_H_
#define TREEWM_SERVE_WIRE_CONNECTION_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "serve/wire/frame.h"
#include "serve/wire/sockets.h"

namespace treewm::serve::wire {

/// What one read round produced.
enum class ReadEvent {
  kOk,         ///< progress (possibly zero frames); keep polling
  kEof,        ///< orderly peer close
  kError,      ///< transport or framing failure; see the returned Status
};

class Connection {
 public:
  Connection(uint64_t id, Fd fd, std::chrono::nanoseconds now,
             size_t max_body_bytes);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  uint64_t id() const { return id_; }
  int fd() const { return fd_.get(); }

  /// Reads until the socket would block (or a per-round byte cap, so one
  /// firehose connection cannot starve the loop), decoding complete frames
  /// into `frames`. On kError the connection must be torn down; a framing
  /// error (ParseError) still deserves a best-effort error frame first.
  [[nodiscard]] ReadEvent ReadAndDecode(std::chrono::nanoseconds now,
                                        std::vector<Frame>* frames,
                                        Status* error);

  /// Queues bytes for writing; call FlushWrites() to push them out.
  void QueueWrite(std::span<const uint8_t> bytes);

  /// Writes as much pending output as the socket accepts. Returns a
  /// transport error on failure; ok + wants_write() tells whether output
  /// remains.
  [[nodiscard]] Status FlushWrites(std::chrono::nanoseconds now);

  bool wants_write() const { return write_pos_ < write_buffer_.size(); }

  /// The peer closed mid-frame if the decoder holds a partial frame.
  bool HasPartialFrame() const { return decoder_.HasPartialFrame(); }

  /// Requests submitted to the registry whose responses have not yet been
  /// queued for writing.
  size_t in_flight = 0;
  /// Close once the write buffer drains (set after a fatal error frame or
  /// when draining finds the connection idle).
  bool closing = false;

  std::chrono::nanoseconds last_activity() const { return last_activity_; }

 private:
  uint64_t id_;
  Fd fd_;
  FrameDecoder decoder_;
  std::vector<uint8_t> write_buffer_;
  size_t write_pos_ = 0;
  std::chrono::nanoseconds last_activity_;
};

}  // namespace treewm::serve::wire

#endif  // TREEWM_SERVE_WIRE_CONNECTION_H_
