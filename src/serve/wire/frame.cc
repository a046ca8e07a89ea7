#include "serve/wire/frame.h"

#include <bit>
#include <cstring>
#include <string_view>

#include "common/crc32.h"
#include "common/fault_injection.h"

namespace treewm::serve::wire {
namespace {

// ------------------------------------------------------------- primitives ----

// Byte-wise little-endian access: one code path on every host, which
// compilers fold into single 32-bit moves where the host is little-endian.
void StoreU32At(uint32_t v, uint8_t* p) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t ReadU32At(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

void PutU16(uint16_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  out->resize(out->size() + 4);
  StoreU32At(v, out->data() + out->size() - 4);
}

void PutU64(uint64_t v, std::vector<uint8_t>* out) {
  PutU32(static_cast<uint32_t>(v), out);
  PutU32(static_cast<uint32_t>(v >> 32), out);
}

/// Bounds-checked little-endian cursor over a frame body. Every accessor
/// fails closed: once an over-read is attempted, ok_ latches false and the
/// caller returns ParseError. No accessor ever reads past the span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

  uint8_t U8() { return Take(1) ? data_[pos_ - 1] : 0; }

  uint16_t U16() {
    if (!Take(2)) return 0;
    return static_cast<uint16_t>(data_[pos_ - 2]) |
           static_cast<uint16_t>(static_cast<uint16_t>(data_[pos_ - 1]) << 8);
  }

  uint32_t U32() {
    if (!Take(4)) return 0;
    return ReadU32At(data_.data() + pos_ - 4);
  }

  uint64_t U64() {
    const uint64_t lo = U32();
    const uint64_t hi = U32();
    return lo | (hi << 32);
  }

  std::span<const uint8_t> Bytes(size_t n) {
    if (!Take(n)) return {};
    return data_.subspan(pos_ - n, n);
  }

 private:
  bool Take(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// The fixed-size fields of one kModelsResponse row: u16 id length, u8
/// state, u32 checksum, u64 submitted, completed_ok and shed. The id bytes
/// come on top and may be empty.
constexpr size_t kMinModelRowBytes = sizeof(uint16_t) + sizeof(uint8_t) +
                                     sizeof(uint32_t) + 3 * sizeof(uint64_t);

Status TruncatedBody(const char* what) {
  return Status::ParseError(std::string("wire: truncated or overlong ") + what +
                            " body");
}

/// CRC over the covered header fields (bytes [4, 12): version, type,
/// reserved, body length) continued over the body. The shared common/crc32
/// implementation keeps this, the snapshot format, and the registry's image
/// checksums on one set of test vectors.
uint32_t FrameCrc(const uint8_t* header, std::span<const uint8_t> body) {
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, std::span<const uint8_t>(header + 4, 8));
  crc = Crc32Update(crc, body);
  return Crc32Finish(crc);
}

bool ValidWireVersion(uint8_t version) {
  return version == kWireVersion || version == kWireVersionMultiModel;
}

bool ValidFrameType(uint8_t version, uint8_t type) {
  const uint8_t max = version >= kWireVersionMultiModel
                          ? static_cast<uint8_t>(FrameType::kModelsResponse)
                          : static_cast<uint8_t>(FrameType::kPong);
  return type >= static_cast<uint8_t>(FrameType::kPredictRequest) && type <= max;
}

void PutString16(std::string_view s, std::vector<uint8_t>* out) {
  PutU16(static_cast<uint16_t>(s.size()), out);
  out->insert(out->end(), s.begin(), s.end());
}

/// Appends a frame header whose body length and CRC are zero placeholders
/// and returns its offset in `out`. The caller appends the body straight
/// after it, then calls SealFrame.
size_t BeginFrame(FrameType type, uint8_t version, std::vector<uint8_t>* out) {
  const size_t header_at = out->size();
  out->insert(out->end(), std::begin(kMagic), std::end(kMagic));
  out->push_back(version);
  out->push_back(static_cast<uint8_t>(type));
  out->resize(header_at + kHeaderBytes);  // reserved, length, CRC: zero
  return header_at;
}

/// Stamps the body length and the CRC into the header at `header_at`; the
/// body is every byte of `out` after that header.
void SealFrame(size_t header_at, std::vector<uint8_t>* out) {
  uint8_t* header = out->data() + header_at;
  const std::span<const uint8_t> body(header + kHeaderBytes,
                                      out->size() - header_at - kHeaderBytes);
  StoreU32At(static_cast<uint32_t>(body.size()), header + 8);
  StoreU32At(FrameCrc(header, body), header + 12);
}

}  // namespace

void AppendFrame(FrameType type, std::span<const uint8_t> body,
                 std::vector<uint8_t>* out, uint8_t version) {
  const size_t header_at = BeginFrame(type, version, out);
  out->insert(out->end(), body.begin(), body.end());
  SealFrame(header_at, out);
}

// ----------------------------------------------------------------- encode ----
//
// Every encoder writes its body straight into the frame, between
// BeginFrame and SealFrame, so each payload byte is written once.

std::vector<uint8_t> EncodePredictRequest(const PredictRequestMsg& msg,
                                          uint8_t version) {
  std::vector<uint8_t> frame;
  frame.reserve(kHeaderBytes + 22 + msg.model_id.size() + 4 * msg.features.size());
  const size_t header_at = BeginFrame(FrameType::kPredictRequest, version, &frame);
  PutU64(msg.request_id, &frame);
  // Zero is the wire's only "no deadline" spelling; kNoDeadline (which the
  // decoder refuses) and any non-positive value normalize to it. Every
  // other timeout travels as is, up to int64-max - 1: the server saturates
  // now + timeout at kNoDeadline rather than trusting it not to overflow.
  const int64_t timeout_ns =
      (msg.timeout.count() > 0 && msg.timeout < kNoDeadline)
          ? msg.timeout.count()
          : 0;
  PutU64(static_cast<uint64_t>(timeout_ns), &frame);
  if (version >= kWireVersionMultiModel) PutString16(msg.model_id, &frame);
  PutU32(static_cast<uint32_t>(msg.features.size()), &frame);
  const size_t features_at = frame.size();
  frame.resize(features_at + 4 * msg.features.size());
  uint8_t* out = frame.data() + features_at;
  for (float f : msg.features) {
    StoreU32At(std::bit_cast<uint32_t>(f), out);
    out += 4;
  }
  SealFrame(header_at, &frame);
  return frame;
}

std::vector<uint8_t> EncodePredictResponse(const PredictResponseMsg& msg,
                                           uint8_t version) {
  std::vector<uint8_t> frame;
  frame.reserve(kHeaderBytes + 16 + msg.votes.size());
  const size_t header_at = BeginFrame(FrameType::kPredictResponse, version, &frame);
  PutU64(msg.request_id, &frame);
  PutU32(std::bit_cast<uint32_t>(msg.label), &frame);
  PutU32(static_cast<uint32_t>(msg.votes.size()), &frame);
  for (int8_t v : msg.votes) frame.push_back(static_cast<uint8_t>(v));
  SealFrame(header_at, &frame);
  return frame;
}

std::vector<uint8_t> EncodeError(const ErrorMsg& msg, uint8_t version) {
  std::vector<uint8_t> frame;
  frame.reserve(kHeaderBytes + 16 + msg.message.size());
  const size_t header_at = BeginFrame(FrameType::kError, version, &frame);
  PutU64(msg.request_id, &frame);
  PutU32(static_cast<uint32_t>(msg.code), &frame);
  PutU32(static_cast<uint32_t>(msg.message.size()), &frame);
  frame.insert(frame.end(), msg.message.begin(), msg.message.end());
  SealFrame(header_at, &frame);
  return frame;
}

std::vector<uint8_t> EncodePing(FrameType type, const PingMsg& msg,
                                uint8_t version) {
  std::vector<uint8_t> frame;
  frame.reserve(kHeaderBytes + 8);
  const size_t header_at = BeginFrame(
      type == FrameType::kPong ? FrameType::kPong : FrameType::kPing, version,
      &frame);
  PutU64(msg.token, &frame);
  SealFrame(header_at, &frame);
  return frame;
}

std::vector<uint8_t> EncodeModelsRequest(const ModelsRequestMsg& msg) {
  std::vector<uint8_t> frame;
  frame.reserve(kHeaderBytes + 8);
  const size_t header_at =
      BeginFrame(FrameType::kModelsRequest, kWireVersionMultiModel, &frame);
  PutU64(msg.token, &frame);
  SealFrame(header_at, &frame);
  return frame;
}

std::vector<uint8_t> EncodeModelsResponse(const ModelsResponseMsg& msg) {
  std::vector<uint8_t> frame;
  const size_t header_at =
      BeginFrame(FrameType::kModelsResponse, kWireVersionMultiModel, &frame);
  PutU64(msg.token, &frame);
  PutU32(static_cast<uint32_t>(msg.models.size()), &frame);
  for (const ModelInfoMsg& m : msg.models) {
    PutString16(m.id, &frame);
    frame.push_back(m.state);
    PutU32(m.checksum, &frame);
    PutU64(m.submitted, &frame);
    PutU64(m.completed_ok, &frame);
    PutU64(m.shed, &frame);
  }
  SealFrame(header_at, &frame);
  return frame;
}

// ----------------------------------------------------------------- decode ----

Result<PredictRequestMsg> DecodePredictRequest(std::span<const uint8_t> body,
                                               uint8_t version) {
  ByteReader reader(body);
  PredictRequestMsg msg;
  msg.request_id = reader.U64();
  const uint64_t timeout_ns = reader.U64();
  if (version >= kWireVersionMultiModel) {
    const uint16_t id_len = reader.U16();
    if (!reader.ok()) return TruncatedBody("predict-request");
    if (id_len > kMaxModelIdBytes) {
      return Status::ParseError("wire: predict-request model id too long");
    }
    if (reader.remaining() < id_len) return TruncatedBody("predict-request");
    const std::span<const uint8_t> id = reader.Bytes(id_len);
    msg.model_id.assign(id.begin(), id.end());
  }
  const uint32_t num_features = reader.U32();
  if (!reader.ok()) return TruncatedBody("predict-request");
  // num_features is attacker-controlled: check it against the bytes actually
  // present BEFORE reserving anything.
  if (reader.remaining() != size_t{num_features} * 4) {
    return Status::ParseError(
        "wire: predict-request feature count does not match body length");
  }
  if (timeout_ns >= static_cast<uint64_t>(kNoDeadline.count())) {
    return Status::ParseError("wire: predict-request timeout out of range");
  }
  msg.timeout = std::chrono::nanoseconds(static_cast<int64_t>(timeout_ns));
  const std::span<const uint8_t> bits = reader.Bytes(size_t{num_features} * 4);
  msg.features.resize(num_features);
  for (uint32_t i = 0; i < num_features; ++i) {
    msg.features[i] = std::bit_cast<float>(ReadU32At(bits.data() + 4 * size_t{i}));
  }
  if (!reader.ok() || reader.remaining() != 0) {
    return TruncatedBody("predict-request");
  }
  return msg;
}

Result<PredictResponseMsg> DecodePredictResponse(std::span<const uint8_t> body) {
  ByteReader reader(body);
  PredictResponseMsg msg;
  msg.request_id = reader.U64();
  msg.label = std::bit_cast<int32_t>(reader.U32());
  const uint32_t num_votes = reader.U32();
  if (!reader.ok()) return TruncatedBody("predict-response");
  if (reader.remaining() != num_votes) {
    return Status::ParseError(
        "wire: predict-response vote count does not match body length");
  }
  const std::span<const uint8_t> votes = reader.Bytes(num_votes);
  msg.votes.reserve(num_votes);
  for (uint8_t v : votes) msg.votes.push_back(static_cast<int8_t>(v));
  if (!reader.ok() || reader.remaining() != 0) {
    return TruncatedBody("predict-response");
  }
  return msg;
}

Result<ErrorMsg> DecodeError(std::span<const uint8_t> body) {
  ByteReader reader(body);
  ErrorMsg msg;
  msg.request_id = reader.U64();
  const uint32_t code = reader.U32();
  const uint32_t msg_len = reader.U32();
  if (!reader.ok()) return TruncatedBody("error");
  if (code == static_cast<uint32_t>(StatusCode::kOk) ||
      code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return Status::ParseError("wire: error frame carries invalid status code");
  }
  msg.code = static_cast<StatusCode>(code);
  if (reader.remaining() != msg_len) {
    return Status::ParseError(
        "wire: error frame message length does not match body length");
  }
  const std::span<const uint8_t> text = reader.Bytes(msg_len);
  msg.message.assign(text.begin(), text.end());
  if (!reader.ok() || reader.remaining() != 0) return TruncatedBody("error");
  return msg;
}

Result<PingMsg> DecodePing(std::span<const uint8_t> body) {
  ByteReader reader(body);
  PingMsg msg;
  msg.token = reader.U64();
  if (!reader.ok() || reader.remaining() != 0) return TruncatedBody("ping");
  return msg;
}

Result<ModelsRequestMsg> DecodeModelsRequest(std::span<const uint8_t> body) {
  ByteReader reader(body);
  ModelsRequestMsg msg;
  msg.token = reader.U64();
  if (!reader.ok() || reader.remaining() != 0) {
    return TruncatedBody("models-request");
  }
  return msg;
}

Result<ModelsResponseMsg> DecodeModelsResponse(std::span<const uint8_t> body) {
  ByteReader reader(body);
  ModelsResponseMsg msg;
  msg.token = reader.U64();
  const uint32_t num_models = reader.U32();
  if (!reader.ok()) return TruncatedBody("models-response");
  // Bound the count by the bytes actually present before reserving
  // anything: a row is never shorter than its fixed-size fields.
  if (size_t{num_models} * kMinModelRowBytes > reader.remaining()) {
    return Status::ParseError(
        "wire: models-response model count does not fit body length");
  }
  msg.models.reserve(num_models);
  for (uint32_t i = 0; i < num_models; ++i) {
    ModelInfoMsg m;
    const uint16_t id_len = reader.U16();
    if (!reader.ok()) return TruncatedBody("models-response");
    if (id_len > kMaxModelIdBytes) {
      return Status::ParseError("wire: models-response model id too long");
    }
    if (reader.remaining() < id_len) return TruncatedBody("models-response");
    const std::span<const uint8_t> id = reader.Bytes(id_len);
    m.id.assign(id.begin(), id.end());
    m.state = reader.U8();
    m.checksum = reader.U32();
    m.submitted = reader.U64();
    m.completed_ok = reader.U64();
    m.shed = reader.U64();
    if (!reader.ok()) return TruncatedBody("models-response");
    msg.models.push_back(std::move(m));
  }
  if (reader.remaining() != 0) return TruncatedBody("models-response");
  return msg;
}

// ---------------------------------------------------------------- decoder ----

void FrameDecoder::Feed(std::span<const uint8_t> bytes) {
  // Compact lazily so a long-lived keep-alive connection cannot grow the
  // buffer without bound on frame-boundary traffic.
  if (consumed_ > 0 && (consumed_ == buffer_.size() || consumed_ >= 4096)) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

Result<std::optional<Frame>> FrameDecoder::Next() {
  if (poisoned_) return poison_status_;
  if (buffered() < kHeaderBytes) return std::optional<Frame>(std::nullopt);
  uint8_t* header = buffer_.data() + consumed_;
  const uint32_t body_len = ReadU32At(header + 8);

  auto poison = [&](Status status) -> Result<std::optional<Frame>> {
    poisoned_ = true;
    poison_status_ = status;
    return poison_status_;
  };

  // Validate everything that does not need the body first, so an oversize
  // length field is rejected before any buffering decision trusts it.
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return poison(Status::ParseError("wire: bad frame magic"));
  }
  if (!ValidWireVersion(header[4])) {
    return poison(Status::ParseError("wire: unsupported protocol version " +
                                     std::to_string(header[4])));
  }
  if (!ValidFrameType(header[4], header[5])) {
    return poison(Status::ParseError("wire: unknown frame type " +
                                     std::to_string(header[5])));
  }
  if (header[6] != 0 || header[7] != 0) {
    return poison(Status::ParseError("wire: nonzero reserved header bytes"));
  }
  if (body_len > max_body_bytes_) {
    return poison(Status::ParseError(
        "wire: frame body of " + std::to_string(body_len) +
        " bytes exceeds the " + std::to_string(max_body_bytes_) + " limit"));
  }
  if (buffered() < kHeaderBytes + body_len) {
    return std::optional<Frame>(std::nullopt);  // wait for the rest
  }

  // Fault site: flip a covered header bit of the complete pending frame, so
  // the CRC check below fails closed exactly as it would on hostile bytes.
  if (TREEWM_FAULT_FIRED("serve.wire.frame.corrupt")) {
    header[5] ^= 0x40;
  }

  const std::span<const uint8_t> body(header + kHeaderBytes, body_len);
  const uint32_t expect_crc = ReadU32At(header + 12);
  if (FrameCrc(header, body) != expect_crc) {
    return poison(Status::ParseError("wire: frame checksum mismatch"));
  }

  Frame frame;
  frame.type = static_cast<FrameType>(header[5]);
  frame.version = header[4];
  frame.body.assign(body.begin(), body.end());
  consumed_ += kHeaderBytes + body_len;
  return std::optional<Frame>(std::move(frame));
}

}  // namespace treewm::serve::wire
