// A BlackBoxModel that answers the authority's disguised batch over the
// wire: one keep-alive loopback connection, rows streamed as v2 predict
// frames addressed to one registry model, never more requests in flight
// than the server's per-connection cap. Built only from the public frame
// codec and socket helpers.
//
// The BlackBoxModel interface cannot return a Status, so a transport or
// protocol failure is latched in status() and the affected rows read 0;
// callers check status() after every query.

#ifndef TREEWM_E2E_BENCH_WIRE_BLACK_BOX_H_
#define TREEWM_E2E_BENCH_WIRE_BLACK_BOX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/verification.h"
#include "serve/wire/frame.h"
#include "serve/wire/sockets.h"

namespace treewm::e2e {

/// Client-side cost split of the last QueryPredictAllVotes call.
struct WireQueryStats {
  double encode_s = 0.0;   ///< building request frames
  double decode_s = 0.0;   ///< parsing response frames, filling the matrix
  double total_s = 0.0;    ///< whole call (socket time = total - encode - decode)
  uint64_t bytes = 0;      ///< written + read
  uint64_t frames = 0;     ///< written + read
  uint64_t window_stalls = 0;  ///< reads taken with the window full
};

class PipelinedWireModel : public core::BlackBoxModel {
 public:
  /// Dials the loopback server on `port`. `window` must not exceed the
  /// server's max_in_flight_per_connection.
  [[nodiscard]] static Result<std::unique_ptr<PipelinedWireModel>> Connect(
      uint16_t port, std::string model_id, size_t num_trees, size_t window);

  size_t NumTrees() const override { return num_trees_; }
  std::vector<int> QueryPredictAll(std::span<const float> x) const override;
  predict::VoteMatrix QueryPredictAllVotes(const data::Dataset& batch) const override;

  /// OK unless some query failed (latched).
  const Status& status() const { return status_; }
  const WireQueryStats& last_stats() const { return stats_; }

  /// When on, each query keeps a copy of its batch and answer (after the
  /// timed part) so callers can check the replies against the engine.
  void set_capture(bool on) { capture_ = on; }
  const data::Dataset& captured_batch() const { return captured_batch_; }
  const predict::VoteMatrix& captured_votes() const { return captured_votes_; }

 private:
  PipelinedWireModel(serve::wire::Fd fd, std::string model_id, size_t num_trees,
                     size_t window)
      : fd_(std::move(fd)), model_id_(std::move(model_id)), num_trees_(num_trees),
        window_(window) {}

  [[nodiscard]] Status WriteAll(const std::vector<uint8_t>& bytes) const;
  [[nodiscard]] Status Run(const data::Dataset& batch, predict::VoteMatrix* out) const;

  serve::wire::Fd fd_;
  std::string model_id_;
  size_t num_trees_;
  size_t window_;
  // Query-time state: the interface is const, the connection is not.
  mutable serve::wire::FrameDecoder decoder_;
  mutable uint64_t next_id_ = 1;
  mutable Status status_;
  mutable WireQueryStats stats_;
  bool capture_ = false;
  mutable data::Dataset captured_batch_;
  mutable predict::VoteMatrix captured_votes_;
};

}  // namespace treewm::e2e

#endif  // TREEWM_E2E_BENCH_WIRE_BLACK_BOX_H_
