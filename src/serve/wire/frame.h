// Length-prefixed binary framing for the verification serving protocol.
//
// Every message on the wire is one frame:
//
//   offset 0   u8[4]  magic "TWMP"
//   offset 4   u8     version (kWireVersion or kWireVersionMultiModel)
//   offset 5   u8     FrameType
//   offset 6   u16le  reserved, must be zero
//   offset 8   u32le  body length (<= max_body_bytes)
//   offset 12  u32le  CRC-32 over header bytes [4, 12) + body
//   offset 16  body
//
// The checksum covers everything after the magic, so a single flipped bit
// anywhere in a frame is detected: magic flips fail the magic check, CRC
// field flips fail the CRC check, and every other byte is under the CRC.
// Decoders NEVER trust a length field — body length is bounds-checked
// against max_body_bytes before any allocation, and every typed body
// decoder walks a bounds-checked cursor that fails closed with ParseError
// on truncation, trailing bytes, or out-of-range values. A malformed frame
// can cost the sender its connection; it cannot crash the server or smuggle
// through a half-parsed request (tests/test_wire.cc fuzzes every prefix and
// random byte flips of valid frames).
//
// Version negotiation is per frame and rides the existing version byte: a
// decoder accepts v1 and v2 frames on the same connection and records which
// one each frame used, so a v1-only client (no model-id field) keeps
// working against a multi-model server byte-for-byte unchanged — the server
// routes its requests to a configured default model. v2 adds a model-id
// field to kPredictRequest and the kModelsRequest/kModelsResponse pair;
// those two frame types are invalid in a v1 frame.
//
// Body layouts (all integers little-endian):
//   kPredictRequest   u64 request_id, u64 timeout_ns (0 = no deadline),
//                     [v2 only: u16 model_id length, model_id bytes,]
//                     u32 num_features, f32[num_features] (IEEE-754 bits)
//   kPredictResponse  u64 request_id, i32 label, u32 num_votes,
//                     i8[num_votes]
//   kError            u64 request_id (0 = connection-level), u32 StatusCode,
//                     u32 message length, message bytes
//   kPing / kPong     u64 token (pong echoes the ping's token)
//   kModelsRequest    u64 token (v2 only)
//   kModelsResponse   u64 token, u32 num_models, then per model:
//                     u16 id length, id bytes, u8 lifecycle state,
//                     u32 image checksum, u64 submitted, u64 completed_ok,
//                     u64 shed (v2 only)

#ifndef TREEWM_SERVE_WIRE_FRAME_H_
#define TREEWM_SERVE_WIRE_FRAME_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/request.h"

namespace treewm::serve::wire {

inline constexpr uint8_t kMagic[4] = {'T', 'W', 'M', 'P'};
/// v1: single-model protocol (PR 9). Still the default for clients that do
/// not target a model by id.
inline constexpr uint8_t kWireVersion = 1;
/// v2: adds the model-id field to kPredictRequest and the models-listing
/// frame pair. Anything above this is rejected as unsupported.
inline constexpr uint8_t kWireVersionMultiModel = 2;
inline constexpr size_t kHeaderBytes = 16;
/// Default ceiling on a frame body. A predict request over the largest
/// supported feature vector fits comfortably; anything bigger is hostile.
inline constexpr size_t kDefaultMaxBodyBytes = size_t{1} << 20;
/// Ceiling on a wire model id. Ids are routing keys, not payloads.
inline constexpr size_t kMaxModelIdBytes = 256;

enum class FrameType : uint8_t {
  kPredictRequest = 1,
  kPredictResponse = 2,
  kError = 3,
  kPing = 4,
  kPong = 5,
  kModelsRequest = 6,   ///< v2 only
  kModelsResponse = 7,  ///< v2 only
};

/// One decoded frame: type + raw body (typed decoders below parse it) plus
/// the protocol version its header carried, so the server can parse the
/// body with the right layout and answer v1 clients in v1.
struct Frame {
  FrameType type = FrameType::kError;
  uint8_t version = kWireVersion;
  std::vector<uint8_t> body;
};

/// Appends one complete frame (header + body) to `out`, stamped with
/// `version` (defaults to v1 so every pre-registry call site is unchanged).
/// The typed encoders below write their bodies in place instead; this is
/// for raw bodies, e.g. a test forging a frame the encoders never emit.
void AppendFrame(FrameType type, std::span<const uint8_t> body,
                 std::vector<uint8_t>* out, uint8_t version = kWireVersion);

// ---------------------------------------------------------------- bodies ----

struct PredictRequestMsg {
  uint64_t request_id = 0;
  /// Relative deadline carried on the wire; 0 = none. The server turns this
  /// into RequestOptions::timeout, so the admission/dispatch/completion
  /// deadline checks of the in-process front-end apply unchanged.
  std::chrono::nanoseconds timeout{0};
  /// v2 only: registry routing key. Empty means "the server's default
  /// model" (and is the only spelling a v1 frame can carry).
  std::string model_id;
  std::vector<float> features;
};

struct PredictResponseMsg {
  uint64_t request_id = 0;
  int32_t label = 0;
  std::vector<int8_t> votes;
};

struct ErrorMsg {
  uint64_t request_id = 0;  ///< 0 = connection-level (no specific request)
  StatusCode code = StatusCode::kInternal;
  std::string message;

  /// Reconstructs the typed Status this error frame transports.
  Status ToStatus() const { return Status(code, message); }
};

struct PingMsg {
  uint64_t token = 0;
};

/// One model row in a kModelsResponse frame. `state` is the registry's
/// lifecycle byte (serve::ModelState); decode validates its range but the
/// wire layer does not otherwise interpret it.
struct ModelInfoMsg {
  std::string id;
  uint8_t state = 0;
  uint32_t checksum = 0;
  uint64_t submitted = 0;
  uint64_t completed_ok = 0;
  uint64_t shed = 0;
};

struct ModelsRequestMsg {
  uint64_t token = 0;
};

struct ModelsResponseMsg {
  uint64_t token = 0;
  std::vector<ModelInfoMsg> models;
};

/// `version` selects the body layout; v1 never encodes the model-id field
/// (callers must not set one — the client refuses before encoding).
std::vector<uint8_t> EncodePredictRequest(const PredictRequestMsg& msg,
                                          uint8_t version = kWireVersion);
std::vector<uint8_t> EncodePredictResponse(const PredictResponseMsg& msg,
                                           uint8_t version = kWireVersion);
std::vector<uint8_t> EncodeError(const ErrorMsg& msg,
                                 uint8_t version = kWireVersion);
std::vector<uint8_t> EncodePing(FrameType type, const PingMsg& msg,
                                uint8_t version = kWireVersion);
std::vector<uint8_t> EncodeModelsRequest(const ModelsRequestMsg& msg);
std::vector<uint8_t> EncodeModelsResponse(const ModelsResponseMsg& msg);

/// Body decoders: fail closed with ParseError on truncation, trailing
/// bytes, or out-of-range fields — never on the framing layer's say-so.
/// DecodePredictRequest parses the layout of the frame's `version`.
[[nodiscard]] Result<PredictRequestMsg> DecodePredictRequest(
    std::span<const uint8_t> body, uint8_t version = kWireVersion);
[[nodiscard]] Result<PredictResponseMsg> DecodePredictResponse(
    std::span<const uint8_t> body);
[[nodiscard]] Result<ErrorMsg> DecodeError(std::span<const uint8_t> body);
[[nodiscard]] Result<PingMsg> DecodePing(std::span<const uint8_t> body);
[[nodiscard]] Result<ModelsRequestMsg> DecodeModelsRequest(
    std::span<const uint8_t> body);
[[nodiscard]] Result<ModelsResponseMsg> DecodeModelsResponse(
    std::span<const uint8_t> body);

// --------------------------------------------------------------- decoder ----

/// Incremental frame reassembler for one byte stream. Feed it whatever the
/// socket produced (short reads welcome); Next() yields complete frames in
/// order, nullopt when more bytes are needed, or ParseError — after which
/// the stream is poisoned (framing is lost for good) and every further
/// Next() repeats the error.
///
/// Fault site "serve.wire.frame.corrupt": when armed and a complete frame
/// is buffered, a header bit of that frame is flipped before validation, so
/// the decode fails closed exactly like hostile bytes would.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_body_bytes = kDefaultMaxBodyBytes)
      : max_body_bytes_(max_body_bytes) {}

  /// Buffers `bytes` (appended after previously fed data).
  void Feed(std::span<const uint8_t> bytes);

  /// Extracts the next complete frame, if any.
  [[nodiscard]] Result<std::optional<Frame>> Next();

  /// Bytes buffered but not yet consumed by a returned frame.
  size_t buffered() const { return buffer_.size() - consumed_; }

  /// True when the stream ended mid-frame: buffered bytes exist that do not
  /// form a complete frame. A connection closing in this state was cut off
  /// mid-message (or was sending garbage).
  bool HasPartialFrame() const { return buffered() > 0; }

  /// True once a ParseError was returned; the stream cannot recover.
  bool poisoned() const { return poisoned_; }

 private:
  size_t max_body_bytes_;
  std::vector<uint8_t> buffer_;
  size_t consumed_ = 0;
  bool poisoned_ = false;
  Status poison_status_;
};

}  // namespace treewm::serve::wire

#endif  // TREEWM_SERVE_WIRE_FRAME_H_
