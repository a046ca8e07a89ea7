#include "wire_black_box.h"

#include <chrono>

#include "harness.h"

namespace treewm::e2e {

using serve::wire::DecodeError;
using serve::wire::DecodePredictResponse;
using serve::wire::EncodePredictRequest;
using serve::wire::Frame;
using serve::wire::FrameType;
using serve::wire::kWireVersionMultiModel;
using serve::wire::PredictRequestMsg;

Result<std::unique_ptr<PipelinedWireModel>> PipelinedWireModel::Connect(
    uint16_t port, std::string model_id, size_t num_trees, size_t window) {
  if (window == 0) return Status::InvalidArgument("window must be >= 1");
  TREEWM_ASSIGN_OR_RETURN(serve::wire::Fd fd,
                          serve::wire::ConnectTcpLoopback(port, std::chrono::seconds(10)));
  return std::unique_ptr<PipelinedWireModel>(
      new PipelinedWireModel(std::move(fd), std::move(model_id), num_trees, window));
}

Status PipelinedWireModel::WriteAll(const std::vector<uint8_t>& bytes) const {
  size_t written = 0;
  while (written < bytes.size()) {
    TREEWM_ASSIGN_OR_RETURN(
        serve::wire::IoOutcome out,
        serve::wire::WriteSome(fd_, bytes.data() + written, bytes.size() - written));
    written += out.bytes;
  }
  stats_.bytes += bytes.size();
  return Status::OK();
}

Status PipelinedWireModel::Run(const data::Dataset& batch, predict::VoteMatrix* out) const {
  const size_t n = batch.num_rows();
  const uint64_t base = next_id_;
  next_id_ += n;
  size_t sent = 0;
  size_t answered = 0;
  std::vector<uint8_t> pending;
  uint8_t chunk[16384];
  while (answered < n) {
    // Top the window up, then flush everything queued in one write.
    auto t = SteadyClock::now();
    pending.clear();
    while (sent < n && sent - answered < window_) {
      PredictRequestMsg msg;
      msg.request_id = base + sent;
      msg.model_id = model_id_;
      const auto row = batch.Row(sent);
      msg.features.assign(row.begin(), row.end());
      const std::vector<uint8_t> frame = EncodePredictRequest(msg, kWireVersionMultiModel);
      pending.insert(pending.end(), frame.begin(), frame.end());
      ++sent;
      ++stats_.frames;
    }
    stats_.encode_s += SecondsSince(t);
    if (!pending.empty()) TREEWM_RETURN_IF_ERROR(WriteAll(pending));

    // Drain every complete reply; read more only when none is buffered.
    TREEWM_ASSIGN_OR_RETURN(std::optional<Frame> frame, decoder_.Next());
    if (!frame.has_value()) {
      if (sent - answered == window_) ++stats_.window_stalls;
      TREEWM_ASSIGN_OR_RETURN(serve::wire::IoOutcome got,
                              serve::wire::ReadSome(fd_, chunk, sizeof(chunk)));
      if (got.eof) return Status::IoError("server closed the connection");
      if (got.would_block) return Status::Timeout("no reply within the receive timeout");
      decoder_.Feed(std::span<const uint8_t>(chunk, got.bytes));
      stats_.bytes += got.bytes;
      continue;
    }
    t = SteadyClock::now();
    ++stats_.frames;
    if (frame->type == FrameType::kError) {
      TREEWM_ASSIGN_OR_RETURN(serve::wire::ErrorMsg error, DecodeError(frame->body));
      return error.ToStatus();
    }
    if (frame->type != FrameType::kPredictResponse) {
      return Status::ParseError("unexpected frame type on a predict connection");
    }
    TREEWM_ASSIGN_OR_RETURN(serve::wire::PredictResponseMsg reply,
                            DecodePredictResponse(frame->body));
    if (reply.request_id < base || reply.request_id >= base + sent ||
        reply.votes.size() != num_trees_) {
      return Status::ParseError("reply does not match an outstanding request");
    }
    std::copy(reply.votes.begin(), reply.votes.end(),
              out->mutable_row(reply.request_id - base));
    ++answered;
    stats_.decode_s += SecondsSince(t);
  }
  return Status::OK();
}

predict::VoteMatrix PipelinedWireModel::QueryPredictAllVotes(
    const data::Dataset& batch) const {
  stats_ = WireQueryStats{};
  const auto start = SteadyClock::now();
  predict::VoteMatrix out(batch.num_rows(), num_trees_);
  if (status_.ok()) status_ = Run(batch, &out);
  stats_.total_s = SecondsSince(start);
  if (capture_) {
    captured_batch_ = batch;
    captured_votes_ = out;
  }
  return out;
}

std::vector<int> PipelinedWireModel::QueryPredictAll(std::span<const float> x) const {
  data::Dataset one(x.size());
  if (!one.AddRow(x, data::kPositive).ok()) return std::vector<int>(num_trees_, 0);
  const predict::VoteMatrix votes = QueryPredictAllVotes(one);
  return std::vector<int>(votes.row(0).begin(), votes.row(0).end());
}

}  // namespace treewm::e2e
