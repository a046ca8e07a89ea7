// Tests for the socket wire layer: fail-closed framing (every-prefix
// truncation + byte-flip fuzz), loopback integration against a real
// ModelRegistry (keep-alive, deadlines, mid-frame disconnects, accept
// shedding, idle timeout, graceful drain, late completions, per-model
// bulkheads over the wire), and the acceptance matrix — completed wire
// responses bit-identical to the in-process answers across connection
// counts × fault schedules, with exactly-once accounting.

#include "serve/wire/socket_server.h"

#include <gtest/gtest.h>
#include <poll.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "io/ensemble_snapshot.h"
#include "predict/flat_ensemble.h"
#include "serve/registry/model_registry.h"
#include "serve/retry.h"
#include "serve/wire/frame.h"
#include "serve/wire/socket_client.h"
#include "serve/wire/sockets.h"

namespace treewm::serve::wire {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::nanoseconds;

// ---------------------------------------------------------------------------
// Shared fixtures

forest::RandomForest TrainForest(uint64_t seed, size_t num_trees = 9,
                                 size_t rows = 300, size_t features = 6) {
  auto d = data::synthetic::MakeBlobs(seed, rows, features, 1.5);
  forest::ForestConfig config;
  config.num_trees = num_trees;
  config.seed = seed;
  return forest::RandomForest::Fit(d, {}, config).MoveValue();
}

std::shared_ptr<const predict::FlatEnsemble> FlatOf(
    const forest::RandomForest& forest) {
  return std::make_shared<predict::FlatEnsemble>(
      predict::FlatEnsemble::FromClassificationTrees(forest.trees()));
}

/// The id a one-model registry serves its model under.
constexpr const char* kModel = "m";

/// A one-model registry — the way to serve a single model over the wire.
std::unique_ptr<ModelRegistry> MakeOneModelRegistry(
    std::shared_ptr<const predict::FlatEnsemble> flat,
    bool start_dispatcher = true) {
  ModelRegistryOptions options;
  options.serving.queue.capacity = 256;
  options.serving.queue.shed_high_water = 224;
  options.serving.queue.max_batch_rows = 16;
  options.serving.queue.max_batch_delay = microseconds(100);
  options.serving.start_dispatcher = start_dispatcher;
  auto registry = ModelRegistry::Create(options).MoveValue();
  EXPECT_TRUE(registry->Load(kModel, std::move(flat)).ok());
  return registry;
}

SocketServerOptions OneModelServerOptions() {
  SocketServerOptions options;
  options.default_model = kModel;
  return options;
}

PredictRequestMsg SampleRequest(uint64_t id = 7) {
  PredictRequestMsg msg;
  msg.request_id = id;
  msg.timeout = milliseconds(250);
  msg.features = {0.5f, -1.25f, 3.0f, 0.0f, -0.0f, 42.5f};
  return msg;
}

/// Blocking raw-socket helper: writes all of `bytes` or fails the test.
void RawWriteAll(const Fd& fd, std::span<const uint8_t> bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    auto wrote = WriteSome(fd, bytes.data() + written, bytes.size() - written);
    ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();
    ASSERT_FALSE(wrote.value().would_block);
    written += wrote.value().bytes;
  }
}

/// Blocking raw-socket helper: reads until `decoder` yields a frame.
/// Returns nullopt on EOF or timeout.
std::optional<Frame> RawReadFrame(const Fd& fd, FrameDecoder* decoder) {
  while (true) {
    auto next = decoder->Next();
    if (!next.ok()) return std::nullopt;
    if (next.value().has_value()) return std::move(*next.value());
    uint8_t chunk[1024];
    auto got = ReadSome(fd, chunk, sizeof(chunk));
    if (!got.ok() || got.value().would_block || got.value().eof) {
      return std::nullopt;
    }
    decoder->Feed(std::span<const uint8_t>(chunk, got.value().bytes));
  }
}

/// Blocks until the peer (server) closes the connection; true on clean EOF.
bool RawReadToEof(const Fd& fd) {
  uint8_t chunk[256];
  while (true) {
    auto got = ReadSome(fd, chunk, sizeof(chunk));
    if (!got.ok() || got.value().would_block) return false;
    if (got.value().eof) return true;
  }
}

// ---------------------------------------------------------------------------
// Frame encoding / decoding

TEST(FrameTest, PredictRequestRoundTrip) {
  const PredictRequestMsg msg = SampleRequest();
  const std::vector<uint8_t> wire = EncodePredictRequest(msg);

  FrameDecoder decoder;
  decoder.Feed(wire);
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_TRUE(frame.value().has_value());
  EXPECT_EQ(frame.value()->type, FrameType::kPredictRequest);

  auto decoded = DecodePredictRequest(frame.value()->body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().request_id, msg.request_id);
  EXPECT_EQ(decoded.value().timeout, msg.timeout);
  EXPECT_EQ(decoded.value().features, msg.features);
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_FALSE(decoder.HasPartialFrame());
}

TEST(FrameTest, PredictResponseErrorAndPingRoundTrip) {
  PredictResponseMsg response;
  response.request_id = 11;
  response.label = -1;
  response.votes = {1, -1, 1, 1, -1};
  ErrorMsg error;
  error.request_id = 12;
  error.code = StatusCode::kResourceExhausted;
  error.message = "queue full";
  PingMsg ping;
  ping.token = 0xDEADBEEFCAFEBABEULL;

  FrameDecoder decoder;
  decoder.Feed(EncodePredictResponse(response));
  decoder.Feed(EncodeError(error));
  decoder.Feed(EncodePing(FrameType::kPong, ping));

  auto f1 = decoder.Next();
  ASSERT_TRUE(f1.ok() && f1.value().has_value());
  auto decoded_response = DecodePredictResponse(f1.value()->body);
  ASSERT_TRUE(decoded_response.ok());
  EXPECT_EQ(decoded_response.value().request_id, 11u);
  EXPECT_EQ(decoded_response.value().label, -1);
  EXPECT_EQ(decoded_response.value().votes, response.votes);

  auto f2 = decoder.Next();
  ASSERT_TRUE(f2.ok() && f2.value().has_value());
  auto decoded_error = DecodeError(f2.value()->body);
  ASSERT_TRUE(decoded_error.ok());
  EXPECT_EQ(decoded_error.value().ToStatus().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded_error.value().message, "queue full");

  auto f3 = decoder.Next();
  ASSERT_TRUE(f3.ok() && f3.value().has_value());
  EXPECT_EQ(f3.value()->type, FrameType::kPong);
  auto decoded_ping = DecodePing(f3.value()->body);
  ASSERT_TRUE(decoded_ping.ok());
  EXPECT_EQ(decoded_ping.value().token, ping.token);
}

TEST(FrameTest, NoDeadlineNormalizesToZeroOnTheWire) {
  PredictRequestMsg msg = SampleRequest();
  msg.timeout = kNoDeadline;  // must NOT travel as int64-max
  const std::vector<uint8_t> wire = EncodePredictRequest(msg);
  FrameDecoder decoder;
  decoder.Feed(wire);
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.ok() && frame.value().has_value());
  auto decoded = DecodePredictRequest(frame.value()->body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().timeout, nanoseconds(0));
}

TEST(FrameTest, IncrementalFeedAtEverySplitPoint) {
  const std::vector<uint8_t> wire = EncodePredictRequest(SampleRequest());
  for (size_t split = 0; split < wire.size(); ++split) {
    FrameDecoder decoder;
    decoder.Feed(std::span<const uint8_t>(wire.data(), split));
    auto first = decoder.Next();
    ASSERT_TRUE(first.ok()) << "split " << split;
    EXPECT_FALSE(first.value().has_value()) << "split " << split;
    decoder.Feed(std::span<const uint8_t>(wire.data() + split,
                                          wire.size() - split));
    auto second = decoder.Next();
    ASSERT_TRUE(second.ok()) << "split " << split;
    ASSERT_TRUE(second.value().has_value()) << "split " << split;
    EXPECT_EQ(second.value()->type, FrameType::kPredictRequest);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(FrameTest, EveryPrefixTruncationYieldsNoFrame) {
  const std::vector<uint8_t> wire = EncodePredictRequest(SampleRequest());
  for (size_t len = 0; len < wire.size(); ++len) {
    FrameDecoder decoder;
    decoder.Feed(std::span<const uint8_t>(wire.data(), len));
    auto next = decoder.Next();
    // A strict prefix is either "need more bytes" or (never) an error —
    // the header is valid, so it must simply be incomplete.
    ASSERT_TRUE(next.ok()) << "prefix " << len;
    EXPECT_FALSE(next.value().has_value()) << "prefix " << len;
    EXPECT_EQ(decoder.HasPartialFrame(), len > 0) << "prefix " << len;
  }
}

TEST(FrameTest, EveryPrefixOfTypedBodiesFailsClosed) {
  const PredictRequestMsg request = SampleRequest();
  PredictResponseMsg response;
  response.request_id = 3;
  response.label = 1;
  response.votes = {1, -1, 1};
  ErrorMsg error;
  error.request_id = 4;
  error.code = StatusCode::kDeadlineExceeded;
  error.message = "expired";
  PingMsg ping;
  ping.token = 99;

  // Strip the 16-byte frame header to get each valid body.
  const auto body_of = [](std::vector<uint8_t> frame) {
    return std::vector<uint8_t>(frame.begin() + kHeaderBytes, frame.end());
  };
  const std::vector<uint8_t> bodies[] = {
      body_of(EncodePredictRequest(request)),
      body_of(EncodePredictResponse(response)),
      body_of(EncodeError(error)),
      body_of(EncodePing(FrameType::kPing, ping)),
  };
  for (size_t which = 0; which < 4; ++which) {
    const std::vector<uint8_t>& body = bodies[which];
    for (size_t len = 0; len < body.size(); ++len) {
      const std::span<const uint8_t> prefix(body.data(), len);
      Status status = Status::OK();
      switch (which) {
        case 0: status = DecodePredictRequest(prefix).status(); break;
        case 1: status = DecodePredictResponse(prefix).status(); break;
        case 2: status = DecodeError(prefix).status(); break;
        case 3: status = DecodePing(prefix).status(); break;
      }
      EXPECT_EQ(status.code(), StatusCode::kParseError)
          << "body " << which << " prefix " << len;
    }
  }
}

TEST(FrameTest, EverySingleByteFlipFailsClosed) {
  const std::vector<uint8_t> wire = EncodePredictRequest(SampleRequest());
  for (size_t at = 0; at < wire.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupt = wire;
      corrupt[at] ^= static_cast<uint8_t>(1u << bit);
      FrameDecoder decoder;
      decoder.Feed(corrupt);
      auto next = decoder.Next();
      // Never an accepted frame: either ParseError (magic/CRC/field check)
      // or incomplete (a flipped length bit promising more bytes).
      if (next.ok()) {
        EXPECT_FALSE(next.value().has_value())
            << "byte " << at << " bit " << bit << " was accepted";
      } else {
        EXPECT_EQ(next.status().code(), StatusCode::kParseError);
      }
    }
  }
}

TEST(FrameTest, RandomFuzzNeverCrashesOrAcceptsGarbage) {
  // Seeded, so a failure reproduces. Random blobs plus randomly mutated
  // valid frames, decoded both whole and in random-size chunks.
  Rng rng(20250808);
  const std::vector<uint8_t> valid = EncodePredictRequest(SampleRequest());
  for (int round = 0; round < 500; ++round) {
    std::vector<uint8_t> blob;
    if (round % 2 == 0) {
      blob.resize(rng.UniformInt(200));
      for (auto& b : blob) b = static_cast<uint8_t>(rng.UniformInt(256));
    } else {
      blob = valid;
      const size_t flips = 1 + rng.UniformInt(4);
      for (size_t i = 0; i < flips; ++i) {
        blob[rng.UniformInt(blob.size())] ^=
            static_cast<uint8_t>(1 + rng.UniformInt(255));
      }
    }
    FrameDecoder decoder;
    size_t fed = 0;
    while (fed < blob.size()) {
      const size_t chunk = 1 + rng.UniformInt(blob.size() - fed);
      decoder.Feed(std::span<const uint8_t>(blob.data() + fed, chunk));
      fed += chunk;
      auto next = decoder.Next();
      if (!next.ok()) {
        EXPECT_EQ(next.status().code(), StatusCode::kParseError);
        EXPECT_TRUE(decoder.poisoned());
        // Poisoned streams repeat the error, they do not recover.
        auto again = decoder.Next();
        EXPECT_FALSE(again.ok());
        break;
      }
      if (next.value().has_value()) {
        // Only an untouched valid frame may decode; its body must then
        // decode cleanly too (no half-trusted frames escape).
        ASSERT_EQ(blob, valid);
        EXPECT_TRUE(DecodePredictRequest(next.value()->body).ok());
      }
    }
  }
}

TEST(FrameTest, OversizeBodyLengthFailsClosedBeforeBuffering) {
  std::vector<uint8_t> frame = EncodePredictRequest(SampleRequest());
  FrameDecoder decoder(/*max_body_bytes=*/8);  // smaller than the real body
  decoder.Feed(frame);
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kParseError);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameTest, FeatureCountMismatchFailsClosed) {
  // Body claims 1000 features but carries 6: the count must be checked
  // against the bytes present before any allocation happens.
  std::vector<uint8_t> frame = EncodePredictRequest(SampleRequest());
  std::vector<uint8_t> body(frame.begin() + kHeaderBytes, frame.end());
  body[16] = 0xE8;  // num_features u32le at body offset 16 -> 1000
  body[17] = 0x03;
  auto decoded = DecodePredictRequest(body);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(FrameTest, CorruptFaultSiteFailsClosed) {
  FaultSpec always;
  ScopedFault corrupt("serve.wire.frame.corrupt", always);
  FrameDecoder decoder;
  decoder.Feed(EncodePredictRequest(SampleRequest()));
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kParseError);
  EXPECT_EQ(corrupt.fires(), 1u);
}

// ---------------------------------------------------------------------------
// Golden frames: the exact bytes, CRC included, that the byte-at-a-time
// codec emitted before the encoders wrote their bodies in place and the CRC
// went slicing-by-8. Encoders must keep producing them and the decoder must
// keep accepting them; a CRC that was wrong but self-consistent would pass
// every round-trip test above and fail here.

/// Four floats whose bits a careless codec would lose: -0.0f, +inf, a quiet
/// NaN with a payload, and the smallest denormal.
std::vector<float> GoldenFeatures() {
  return {std::bit_cast<float>(0x80000000u), std::bit_cast<float>(0x7F800000u),
          std::bit_cast<float>(0x7FC01234u), std::bit_cast<float>(0x00000001u)};
}

/// v1 request: id 0x0102030405060708, timeout 250 ms, GoldenFeatures().
constexpr uint8_t kGoldenV1Request[] = {
    0x54, 0x57, 0x4D, 0x50, 0x01, 0x01, 0x00, 0x00, 0x24, 0x00, 0x00, 0x00,
    0xD3, 0x02, 0x98, 0x2E, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
    0x80, 0xB2, 0xE6, 0x0E, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x80, 0x7F, 0x34, 0x12, 0xC0, 0x7F,
    0x01, 0x00, 0x00, 0x00};

/// v2 request: id 0xA1B2C3D4E5F60718, timeout 1 ns, model "golden",
/// GoldenFeatures().
constexpr uint8_t kGoldenV2Request[] = {
    0x54, 0x57, 0x4D, 0x50, 0x02, 0x01, 0x00, 0x00, 0x2C, 0x00, 0x00, 0x00,
    0x80, 0x48, 0x34, 0x3C, 0x18, 0x07, 0xF6, 0xE5, 0xD4, 0xC3, 0xB2, 0xA1,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x67, 0x6F,
    0x6C, 0x64, 0x65, 0x6E, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,
    0x00, 0x00, 0x80, 0x7F, 0x34, 0x12, 0xC0, 0x7F, 0x01, 0x00, 0x00, 0x00};

/// v1 response: id 42, label -1, votes {1, -1, 1}.
constexpr uint8_t kGoldenResponse[] = {
    0x54, 0x57, 0x4D, 0x50, 0x01, 0x02, 0x00, 0x00, 0x13, 0x00, 0x00, 0x00,
    0xD1, 0x23, 0xCB, 0x0D, 0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xFF, 0xFF, 0xFF, 0xFF, 0x03, 0x00, 0x00, 0x00, 0x01, 0xFF, 0x01};

std::vector<uint32_t> BitsOf(const std::vector<float>& values) {
  std::vector<uint32_t> bits;
  for (float v : values) bits.push_back(std::bit_cast<uint32_t>(v));
  return bits;
}

/// Decodes `bytes` as exactly one frame of `type`.
Frame DecodeOneFrame(std::span<const uint8_t> bytes, FrameType type) {
  FrameDecoder decoder;
  decoder.Feed(bytes);
  auto next = decoder.Next();
  if (!next.ok() || !next.value().has_value()) {
    ADD_FAILURE() << "no complete frame: " << next.status().ToString();
    return Frame{};
  }
  EXPECT_EQ(next.value()->type, type);
  EXPECT_EQ(decoder.buffered(), 0u);
  return std::move(*next.value());
}

TEST(FrameGoldenTest, PredictRequestsEncodeAndDecodeBitForBit) {
  PredictRequestMsg v1;
  v1.request_id = 0x0102030405060708ULL;
  v1.timeout = milliseconds(250);
  v1.features = GoldenFeatures();
  PredictRequestMsg v2;
  v2.request_id = 0xA1B2C3D4E5F60718ULL;
  v2.timeout = nanoseconds(1);
  v2.model_id = "golden";
  v2.features = GoldenFeatures();
  const struct {
    const PredictRequestMsg& msg;
    uint8_t version;
    std::span<const uint8_t> golden;
  } cases[] = {{v1, kWireVersion, kGoldenV1Request},
               {v2, kWireVersionMultiModel, kGoldenV2Request}};

  for (const auto& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.version));
    EXPECT_EQ(EncodePredictRequest(c.msg, c.version),
              std::vector<uint8_t>(c.golden.begin(), c.golden.end()));
    const Frame frame = DecodeOneFrame(c.golden, FrameType::kPredictRequest);
    EXPECT_EQ(frame.version, c.version);
    auto decoded = DecodePredictRequest(frame.body, frame.version);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().request_id, c.msg.request_id);
    EXPECT_EQ(decoded.value().timeout, c.msg.timeout);
    EXPECT_EQ(decoded.value().model_id, c.msg.model_id);
    EXPECT_EQ(BitsOf(decoded.value().features), BitsOf(c.msg.features));
  }
}

TEST(FrameGoldenTest, PredictResponseEncodesAndDecodesBitForBit) {
  PredictResponseMsg msg;
  msg.request_id = 42;
  msg.label = -1;
  msg.votes = {1, -1, 1};
  EXPECT_EQ(EncodePredictResponse(msg),
            std::vector<uint8_t>(std::begin(kGoldenResponse),
                                 std::end(kGoldenResponse)));
  const Frame frame = DecodeOneFrame(kGoldenResponse, FrameType::kPredictResponse);
  auto decoded = DecodePredictResponse(frame.body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().request_id, msg.request_id);
  EXPECT_EQ(decoded.value().label, msg.label);
  EXPECT_EQ(decoded.value().votes, msg.votes);
}

/// The frames above have 36- and 44-byte bodies, too short for the CRC's
/// 64-byte fold. This one is dispute-shaped (784 seeded features for model
/// "suspect", 3,181 bytes), and its checksums were captured from the
/// slicing-by-8 codec.
TEST(FrameGoldenTest, DisputeShapedRequestKeepsItsChecksums) {
  Rng rng(20261020);
  PredictRequestMsg msg;
  msg.request_id = 0x0123456789ABCDEFULL;
  msg.timeout = milliseconds(250);
  msg.model_id = "suspect";
  msg.features.resize(784);
  for (float& f : msg.features) f = static_cast<float>(rng.UniformReal());

  const std::vector<uint8_t> frame =
      EncodePredictRequest(msg, kWireVersionMultiModel);
  ASSERT_EQ(frame.size(), 3181u);
  const uint32_t crc_field = uint32_t{frame[12]} | uint32_t{frame[13]} << 8 |
                             uint32_t{frame[14]} << 16 | uint32_t{frame[15]} << 24;
  EXPECT_EQ(crc_field, 0x96CE155Cu);
  EXPECT_EQ(Crc32(frame), 0x7E99CC37u);

  const Frame decoded = DecodeOneFrame(frame, FrameType::kPredictRequest);
  auto request = DecodePredictRequest(decoded.body, decoded.version);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(BitsOf(request.value().features), BitsOf(msg.features));
}

// ---------------------------------------------------------------------------
// Retry predicate

TEST(WireRetryTest, RetriesOverloadAndResetsOnly) {
  EXPECT_TRUE(IsWireRetryableStatus(Status::ResourceExhausted("shed")));
  EXPECT_TRUE(IsWireRetryableStatus(Status::IoError("connection reset")));
  EXPECT_FALSE(IsWireRetryableStatus(Status::DeadlineExceeded("late")));
  EXPECT_FALSE(IsWireRetryableStatus(Status::Timeout("slow")));
  EXPECT_FALSE(IsWireRetryableStatus(Status::InvalidArgument("bad")));
  EXPECT_FALSE(IsWireRetryableStatus(Status::ParseError("garbage")));
  EXPECT_FALSE(IsWireRetryableStatus(Status::FailedPrecondition("draining")));
}

TEST(WireRetryTest, RetryWithBackoffIfHonorsCustomPredicate) {
  FakeClock clock;
  RetryPolicy policy;
  policy.max_attempts = 3;
  size_t calls = 0;
  const Status outcome = RetryWithBackoffIf(
      policy, &clock, IsWireRetryableStatus, [&]() -> Status {
        ++calls;
        return calls < 3 ? Status::IoError("connection reset")
                         : Status::OK();
      });
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(calls, 3u);

  // The default helper does NOT retry transport errors.
  calls = 0;
  const Status untouched = RetryWithBackoff(policy, &clock, [&]() -> Status {
    ++calls;
    return Status::IoError("connection reset");
  });
  EXPECT_FALSE(untouched.ok());
  EXPECT_EQ(calls, 1u);
}

// ---------------------------------------------------------------------------
// Loopback integration

class WireLoopbackTest : public ::testing::Test {
 protected:
  void StartServer(SocketServerOptions options = OneModelServerOptions(),
                   bool start_dispatcher = true) {
    flat_ = FlatOf(TrainForest(5));
    registry_ = MakeOneModelRegistry(flat_, start_dispatcher);
    auto server = SocketServer::Create(registry_.get(), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).MoveValue();
  }

  SocketClient MakeClient() {
    SocketClientOptions options;
    options.port = server_->port();
    options.recv_timeout = std::chrono::seconds(5);
    return SocketClient(options);
  }

  std::vector<float> Probe(uint64_t salt) const {
    std::vector<float> x(flat_->num_features());
    Rng rng(salt);
    for (auto& v : x) {
      v = static_cast<float>(rng.UniformRealRange(-2.0, 2.0));
    }
    return x;
  }

  /// Writes predict requests with ids 1..n as one pipelined burst.
  void PipelineRequests(const Fd& fd, uint64_t n) const {
    std::vector<uint8_t> pipelined;
    for (uint64_t id = 1; id <= n; ++id) {
      PredictRequestMsg msg;
      msg.request_id = id;
      msg.features = Probe(id);
      const std::vector<uint8_t> frame = EncodePredictRequest(msg);
      pipelined.insert(pipelined.end(), frame.begin(), frame.end());
    }
    RawWriteAll(fd, pipelined);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
    if (registry_ != nullptr) registry_->Shutdown();
    if (server_ != nullptr) {
      // Exactly-once accounting must close after drain (models-list
      // requests are answered through the same books).
      const WireStats stats = server_->stats();
      EXPECT_EQ(stats.requests_received + stats.models_requests,
                stats.responses_sent + stats.refusals_sent +
                    stats.responses_dropped);
      EXPECT_EQ(stats.active_connections, 0u);
      EXPECT_EQ(stats.connections_accepted, stats.connections_closed);
    }
  }

  std::shared_ptr<const predict::FlatEnsemble> flat_;
  std::unique_ptr<ModelRegistry> registry_;
  std::unique_ptr<SocketServer> server_;
};

TEST_F(WireLoopbackTest, PredictMatchesInProcessBitForBit) {
  StartServer();
  SocketClient client = MakeClient();
  for (uint64_t i = 0; i < 20; ++i) {
    const std::vector<float> x = Probe(i);
    auto wire_result = client.Predict(x);
    ASSERT_TRUE(wire_result.ok()) << wire_result.status().ToString();
    auto local_result = registry_->Predict(kModel, x);
    ASSERT_TRUE(local_result.ok());
    EXPECT_EQ(wire_result.value().label, local_result.value().label);
    EXPECT_EQ(wire_result.value().votes, local_result.value().votes);
  }
}

TEST_F(WireLoopbackTest, KeepAliveReusesOneConnection) {
  StartServer();
  SocketClient client = MakeClient();
  ASSERT_TRUE(client.Ping().ok());
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Predict(Probe(i)).ok());
  }
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_EQ(client.round_trips(), 12u);
  const WireStats stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.requests_received, 10u);
  EXPECT_EQ(stats.pings, 2u);
}

TEST_F(WireLoopbackTest, DeadlineExpiredOnWireFailsClosedTyped) {
  StartServer();
  SocketClient client = MakeClient();
  // A 1ns budget is spent before the request reaches dispatch; the refusal
  // must come back as the original typed Status, not a generic failure —
  // and must not be retried by the wire retry discipline.
  auto result = client.Predict(Probe(1), nanoseconds(1));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(IsWireRetryableStatus(result.status()));
  // The connection survives a per-request refusal.
  EXPECT_TRUE(client.Predict(Probe(2)).ok());
  EXPECT_EQ(server_->stats().connections_accepted, 1u);
}

TEST_F(WireLoopbackTest, LongestTimeoutOnWireIsServedNotExpired) {
  StartServer();
  SocketClient client = MakeClient();
  // The decoder accepts any timeout below int64 max; the server must
  // saturate now + timeout instead of wrapping it into the past.
  const std::vector<float> x = Probe(3);
  auto result = client.Predict(x, nanoseconds::max() - nanoseconds{1});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto local_result = registry_->Predict(kModel, x);
  ASSERT_TRUE(local_result.ok());
  EXPECT_EQ(result.value().votes, local_result.value().votes);
}

TEST_F(WireLoopbackTest, GarbageBytesEarnTypedErrorAndClose) {
  StartServer();
  auto raw = ConnectTcpLoopback(server_->port(), std::chrono::seconds(5));
  ASSERT_TRUE(raw.ok());
  const uint8_t garbage[] = {'n', 'o', 't', ' ', 'a', ' ', 'f', 'r',
                             'a', 'm', 'e', '!', '!', '!', '!', '!'};
  RawWriteAll(raw.value(), garbage);
  FrameDecoder decoder;
  std::optional<Frame> reply = RawReadFrame(raw.value(), &decoder);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kError);
  auto error = DecodeError(reply->body);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().request_id, 0u);  // connection-level
  EXPECT_EQ(error.value().ToStatus().code(), StatusCode::kParseError);
  // The server closes after a framing error — and keeps serving others.
  EXPECT_TRUE(RawReadToEof(raw.value()));
  SocketClient client = MakeClient();
  EXPECT_TRUE(client.Predict(Probe(3)).ok());
  EXPECT_GE(server_->stats().parse_errors, 1u);
}

TEST_F(WireLoopbackTest, MidFrameDisconnectLeavesServerServing) {
  StartServer();
  {
    auto raw = ConnectTcpLoopback(server_->port(), std::chrono::seconds(5));
    ASSERT_TRUE(raw.ok());
    const std::vector<uint8_t> frame =
        EncodePredictRequest(SampleRequest());
    RawWriteAll(raw.value(),
                std::span<const uint8_t>(frame.data(), frame.size() / 2));
    // Half a frame on the wire, then vanish.
  }
  SocketClient client = MakeClient();
  ASSERT_TRUE(client.Predict(Probe(4)).ok());
  // The loop notices the dead peer on its next wake; poke it with traffic
  // until the close is recorded.
  for (int i = 0; i < 200 && server_->stats().closed_mid_frame == 0; ++i) {
    ASSERT_TRUE(client.Ping().ok());
    std::this_thread::yield();
  }
  EXPECT_EQ(server_->stats().closed_mid_frame, 1u);
}

TEST_F(WireLoopbackTest, AcceptShedOverHighWaterIsTypedRefusal) {
  SocketServerOptions options = OneModelServerOptions();
  options.max_connections = 1;
  StartServer(options);
  SocketClient holder = MakeClient();
  ASSERT_TRUE(holder.Ping().ok());  // occupies the only slot, server-side
  SocketClient refused = MakeClient();
  auto result = refused.Predict(Probe(5));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsWireRetryableStatus(result.status()));  // polite clients back off
  EXPECT_EQ(server_->stats().connections_shed, 1u);
  // The holder's slot still works; once it leaves, a newcomer gets in.
  ASSERT_TRUE(holder.Ping().ok());
  holder.Close();
  SocketClient next = MakeClient();
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff = milliseconds(1);
  policy.max_backoff = milliseconds(4);
  auto eventually = next.PredictWithRetry(Probe(6), policy);
  EXPECT_TRUE(eventually.ok()) << eventually.status().ToString();
}

TEST_F(WireLoopbackTest, InFlightCapRefusesOverrunKeepsConnection) {
  SocketServerOptions options = OneModelServerOptions();
  options.max_in_flight_per_connection = 2;
  // Manual-mode model: requests park until the test pumps, so the
  // pipelined overrun deterministically hits the cap.
  StartServer(options, /*start_dispatcher=*/false);
  auto raw = ConnectTcpLoopback(server_->port(), std::chrono::seconds(5));
  ASSERT_TRUE(raw.ok());
  PipelineRequests(raw.value(), 3);

  // The overrun refusal arrives without any pumping.
  FrameDecoder decoder;
  std::optional<Frame> first = RawReadFrame(raw.value(), &decoder);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->type, FrameType::kError);
  auto refusal = DecodeError(first->body);
  ASSERT_TRUE(refusal.ok());
  EXPECT_EQ(refusal.value().request_id, 3u);
  EXPECT_EQ(refusal.value().ToStatus().code(), StatusCode::kResourceExhausted);

  // Pump the model; the two admitted requests complete and the
  // connection — never closed — carries their responses back in order.
  std::atomic<bool> stop_pumping{false};
  ThreadPool pump_pool(1);
  ASSERT_TRUE(pump_pool.Submit([&] {
    while (!stop_pumping.load(std::memory_order_acquire)) {
      // discard ok: the model stays loaded for the whole test
      (void)registry_->Pump(kModel, /*force_flush=*/true);
      std::this_thread::yield();
    }
  }).ok());
  for (uint64_t id = 1; id <= 2; ++id) {
    std::optional<Frame> reply = RawReadFrame(raw.value(), &decoder);
    ASSERT_TRUE(reply.has_value()) << "response " << id;
    ASSERT_EQ(reply->type, FrameType::kPredictResponse);
    auto msg = DecodePredictResponse(reply->body);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg.value().request_id, id);
  }
  stop_pumping.store(true, std::memory_order_release);
  pump_pool.Shutdown();
  const WireStats stats = server_->stats();
  EXPECT_EQ(stats.requests_received, 3u);
  EXPECT_EQ(stats.refusals_sent, 1u);
  EXPECT_EQ(stats.responses_sent, 2u);
}

TEST_F(WireLoopbackTest, IdleTimeoutClosesQuietConnections) {
  SocketServerOptions options = OneModelServerOptions();
  options.idle_timeout = milliseconds(50);
  StartServer(options);
  auto raw = ConnectTcpLoopback(server_->port(), std::chrono::seconds(10));
  ASSERT_TRUE(raw.ok());
  const std::vector<uint8_t> ping = EncodePing(FrameType::kPing, PingMsg{1});
  RawWriteAll(raw.value(), ping);
  FrameDecoder decoder;
  ASSERT_TRUE(RawReadFrame(raw.value(), &decoder).has_value());
  // Go silent; the server must hang up on its own. The blocking read parks
  // until the server-side close arrives as EOF — no sleeping, no polling.
  EXPECT_TRUE(RawReadToEof(raw.value()));
  EXPECT_EQ(server_->stats().idle_closed, 1u);
}

TEST_F(WireLoopbackTest, OversizeFrameOnWireFailsClosed) {
  SocketServerOptions options = OneModelServerOptions();
  options.max_body_bytes = 64;
  StartServer(options);
  PredictRequestMsg big;
  big.request_id = 1;
  big.features.assign(100, 1.0f);  // 400-byte body > 64
  auto raw = ConnectTcpLoopback(server_->port(), std::chrono::seconds(5));
  ASSERT_TRUE(raw.ok());
  RawWriteAll(raw.value(), EncodePredictRequest(big));
  FrameDecoder decoder;
  std::optional<Frame> reply = RawReadFrame(raw.value(), &decoder);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kError);
  auto error = DecodeError(reply->body);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error.value().ToStatus().code(), StatusCode::kParseError);
  EXPECT_TRUE(RawReadToEof(raw.value()));
}

TEST_F(WireLoopbackTest, DrainRefusesLateRequestsAndClosesEverything) {
  StartServer();
  SocketClient client = MakeClient();
  ASSERT_TRUE(client.Predict(Probe(1)).ok());
  server_->Shutdown();
  // Anything after drain: the listener is closed, so new connections are
  // refused at the transport, and the old connection was closed under us.
  auto late = client.Predict(Probe(2));
  EXPECT_FALSE(late.ok());
  SocketClient newcomer = MakeClient();
  EXPECT_FALSE(newcomer.Ping().ok());
  const WireStats stats = server_->stats();
  EXPECT_EQ(stats.requests_received, 1u);
  EXPECT_EQ(stats.responses_sent, 1u);
}

TEST_F(WireLoopbackTest, DrainDeadlineDropsWedgedAnswersOnceEvenAfterServerIsGone) {
  SocketServerOptions options = OneModelServerOptions();
  options.drain_deadline = milliseconds(100);
  // Manual mode and nobody pumps: submitted requests can never complete, so
  // drain MUST hit its deadline, drop the answers, and still balance the
  // books — this is the "every accepted request answered or refused exactly
  // once" property under the worst case.
  StartServer(options, /*start_dispatcher=*/false);
  auto raw = ConnectTcpLoopback(server_->port(), std::chrono::seconds(5));
  ASSERT_TRUE(raw.ok());
  PipelineRequests(raw.value(), 4);
  // Ensure the server has read them before we drain.
  for (int i = 0; i < 10000 && server_->stats().requests_received < 4; ++i) {
    std::this_thread::yield();
  }
  ASSERT_EQ(server_->stats().requests_received, 4u);
  server_->Shutdown();
  const WireStats stats = server_->stats();
  EXPECT_EQ(stats.requests_received, 4u);
  EXPECT_EQ(stats.responses_sent, 0u);
  EXPECT_EQ(stats.responses_dropped, 4u);
  EXPECT_EQ(stats.requests_received + stats.models_requests,
            stats.responses_sent + stats.refusals_sent +
                stats.responses_dropped);
  EXPECT_EQ(stats.active_connections, 0u);
  EXPECT_EQ(stats.connections_accepted, stats.connections_closed);
  // The model still owes the four answers. Their callbacks fire only now,
  // after the server is destroyed: they may touch nothing but the shared
  // inbox, which Shutdown closed (the sanitizer jobs run this path).
  server_.reset();
  auto answered = registry_->Pump(kModel, /*force_flush=*/true);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_EQ(answered.value(), 4u);
}

TEST_F(WireLoopbackTest, LongestDrainAndIdleDurationsMeanNever) {
  // Both durations are added to clock readings. Saturated, max() means
  // "never": drain waits for the stalled answer and delivers it. Unchecked,
  // now + drain_deadline wraps into the past, Shutdown force-closes at once
  // and drops the answer, and the idle connection's poll wait overflows.
  SocketServerOptions options = OneModelServerOptions();
  options.drain_deadline = nanoseconds::max();
  options.idle_timeout = nanoseconds::max();
  StartServer(options);
  FaultSpec stall;
  stall.stall = milliseconds(300);
  stall.max_fires = 1;
  ScopedFault fault("serve.batch.stall", stall);

  auto idle = ConnectTcpLoopback(server_->port(), std::chrono::seconds(5));
  ASSERT_TRUE(idle.ok());
  auto raw = ConnectTcpLoopback(server_->port(), std::chrono::seconds(5));
  ASSERT_TRUE(raw.ok());
  PipelineRequests(raw.value(), 1);
  // Once the site has fired, the request's batch sits in the stall.
  while (fault.fires() == 0) std::this_thread::yield();
  ASSERT_EQ(server_->stats().connections_accepted, 2u);
  server_->Shutdown();
  const WireStats stats = server_->stats();
  EXPECT_EQ(stats.requests_received, 1u);
  EXPECT_EQ(stats.responses_sent, 1u);
  EXPECT_EQ(stats.responses_dropped, 0u);
  EXPECT_EQ(stats.requests_received + stats.models_requests,
            stats.responses_sent + stats.refusals_sent +
                stats.responses_dropped);
  FrameDecoder decoder;
  std::optional<Frame> reply = RawReadFrame(raw.value(), &decoder);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kPredictResponse);
}

// ---------------------------------------------------------------------------
// Wire protocol v2: model-id routing and the models listing

/// Re-stamps the header CRC (over bytes [4, 12) + body) after a test
/// mutated a header field, so the mutation reaches the field's own check
/// instead of dying at the checksum.
void RestampFrameCrc(std::vector<uint8_t>* frame) {
  std::vector<uint8_t> covered((*frame).begin() + 4, (*frame).begin() + 12);
  covered.insert(covered.end(), (*frame).begin() + kHeaderBytes, (*frame).end());
  const uint32_t crc = treewm::Crc32(covered);
  (*frame)[12] = static_cast<uint8_t>(crc & 0xFF);
  (*frame)[13] = static_cast<uint8_t>((crc >> 8) & 0xFF);
  (*frame)[14] = static_cast<uint8_t>((crc >> 16) & 0xFF);
  (*frame)[15] = static_cast<uint8_t>((crc >> 24) & 0xFF);
}

TEST(FrameV2Test, PredictRequestRoundTripCarriesModelId) {
  PredictRequestMsg msg = SampleRequest();
  msg.model_id = "fraud-v7";
  const std::vector<uint8_t> wire =
      EncodePredictRequest(msg, kWireVersionMultiModel);

  FrameDecoder decoder;
  decoder.Feed(wire);
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.ok() && frame.value().has_value());
  EXPECT_EQ(frame.value()->type, FrameType::kPredictRequest);
  EXPECT_EQ(frame.value()->version, kWireVersionMultiModel);

  auto decoded = DecodePredictRequest(frame.value()->body, frame.value()->version);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().request_id, msg.request_id);
  EXPECT_EQ(decoded.value().timeout, msg.timeout);
  EXPECT_EQ(decoded.value().model_id, "fraud-v7");
  EXPECT_EQ(decoded.value().features, msg.features);
}

TEST(FrameV2Test, ModelsRequestAndResponseRoundTrip) {
  ModelsRequestMsg request;
  request.token = 0xFEEDULL;
  ModelsResponseMsg response;
  response.token = 0xFEEDULL;
  ModelInfoMsg a;
  a.id = "alpha";
  a.state = 2;  // SERVING
  a.checksum = 0xABCD1234u;
  a.submitted = 100;
  a.completed_ok = 97;
  a.shed = 3;
  ModelInfoMsg b;
  b.id = "beta";
  b.state = 5;  // FAILED
  response.models = {a, b};

  FrameDecoder decoder;
  decoder.Feed(EncodeModelsRequest(request));
  decoder.Feed(EncodeModelsResponse(response));

  auto f1 = decoder.Next();
  ASSERT_TRUE(f1.ok() && f1.value().has_value());
  EXPECT_EQ(f1.value()->type, FrameType::kModelsRequest);
  EXPECT_EQ(f1.value()->version, kWireVersionMultiModel);
  auto req = DecodeModelsRequest(f1.value()->body);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req.value().token, request.token);

  auto f2 = decoder.Next();
  ASSERT_TRUE(f2.ok() && f2.value().has_value());
  EXPECT_EQ(f2.value()->type, FrameType::kModelsResponse);
  auto rsp = DecodeModelsResponse(f2.value()->body);
  ASSERT_TRUE(rsp.ok()) << rsp.status().ToString();
  EXPECT_EQ(rsp.value().token, response.token);
  ASSERT_EQ(rsp.value().models.size(), 2u);
  EXPECT_EQ(rsp.value().models[0].id, "alpha");
  EXPECT_EQ(rsp.value().models[0].state, 2);
  EXPECT_EQ(rsp.value().models[0].checksum, 0xABCD1234u);
  EXPECT_EQ(rsp.value().models[0].submitted, 100u);
  EXPECT_EQ(rsp.value().models[0].completed_ok, 97u);
  EXPECT_EQ(rsp.value().models[0].shed, 3u);
  EXPECT_EQ(rsp.value().models[1].id, "beta");
  EXPECT_EQ(rsp.value().models[1].state, 5);

  // A one-character id is the shortest the registry accepts: its row is
  // 32 bytes, and the listing of that row alone must decode.
  ModelsResponseMsg shortest;
  shortest.token = 7;
  ModelInfoMsg x;
  x.id = "x";
  x.state = 2;
  x.shed = 1;
  shortest.models = {x};
  const std::vector<uint8_t> frame = EncodeModelsResponse(shortest);
  std::vector<uint8_t> body(frame.begin() + kHeaderBytes, frame.end());
  auto one = DecodeModelsResponse(body);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_EQ(one.value().models.size(), 1u);
  EXPECT_EQ(one.value().models[0].id, "x");
  EXPECT_EQ(one.value().models[0].shed, 1u);

  // A count claiming one row more than the body holds is refused by the
  // row-count bound, before anything is reserved.
  body[8] = 2;  // u32le num_models at body offset 8
  auto refused = DecodeModelsResponse(body);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kParseError);
  EXPECT_NE(refused.status().message().find("model count"), std::string::npos)
      << refused.status().ToString();
}

TEST(FrameV2Test, EveryPrefixOfV2BodiesFailsClosed) {
  PredictRequestMsg request = SampleRequest();
  request.model_id = "alpha";
  ModelsResponseMsg response;
  response.token = 9;
  ModelInfoMsg row;
  row.id = "alpha";
  row.state = 2;
  response.models = {row};

  const auto body_of = [](std::vector<uint8_t> frame) {
    return std::vector<uint8_t>(frame.begin() + kHeaderBytes, frame.end());
  };
  const std::vector<uint8_t> request_body =
      body_of(EncodePredictRequest(request, kWireVersionMultiModel));
  for (size_t len = 0; len < request_body.size(); ++len) {
    const std::span<const uint8_t> prefix(request_body.data(), len);
    EXPECT_EQ(DecodePredictRequest(prefix, kWireVersionMultiModel).status().code(),
              StatusCode::kParseError)
        << "v2 request prefix " << len;
  }
  const std::vector<uint8_t> response_body =
      body_of(EncodeModelsResponse(response));
  for (size_t len = 0; len < response_body.size(); ++len) {
    const std::span<const uint8_t> prefix(response_body.data(), len);
    EXPECT_EQ(DecodeModelsResponse(prefix).status().code(),
              StatusCode::kParseError)
        << "models response prefix " << len;
  }
  // Version mismatch is not a free pass either: a v2 body read with the v1
  // layout lands the feature count on the model-id bytes and fails closed.
  EXPECT_EQ(DecodePredictRequest(request_body, kWireVersion).status().code(),
            StatusCode::kParseError);
}

TEST(FrameV2Test, OversizeModelIdLengthFailsClosed) {
  PredictRequestMsg msg = SampleRequest();
  msg.model_id = "ok";
  std::vector<uint8_t> frame = EncodePredictRequest(msg, kWireVersionMultiModel);
  std::vector<uint8_t> body(frame.begin() + kHeaderBytes, frame.end());
  // u16 model-id length lives at body offset 16 (after request_id+timeout);
  // claim 0xFFFF — far past both the bytes present and kMaxModelIdBytes.
  body[16] = 0xFF;
  body[17] = 0xFF;
  EXPECT_EQ(DecodePredictRequest(body, kWireVersionMultiModel).status().code(),
            StatusCode::kParseError);
}

TEST(FrameV2Test, UnsupportedVersionByteFailsClosed) {
  std::vector<uint8_t> frame = EncodePredictRequest(SampleRequest());
  frame[4] = 3;  // one past kWireVersionMultiModel
  RestampFrameCrc(&frame);
  FrameDecoder decoder;
  decoder.Feed(frame);
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kParseError);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameV2Test, ModelsFrameTypeInAV1FrameFailsClosed) {
  // kModelsRequest is a v2-only frame type; a v1 header carrying it is a
  // protocol violation, not a negotiation.
  std::vector<uint8_t> body(8, 0);
  body[0] = 9;  // token
  std::vector<uint8_t> frame;
  AppendFrame(FrameType::kModelsRequest, body, &frame, kWireVersion);
  FrameDecoder decoder;
  decoder.Feed(frame);
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// Registry-mode loopback: version negotiation against a live ModelRegistry

class WireRegistryLoopbackTest : public ::testing::Test {
 protected:
  void StartRegistryServer() {
    ModelRegistryOptions registry_options;
    registry_options.serving.queue.capacity = 256;
    registry_options.serving.queue.shed_high_water = 224;
    registry_options.serving.queue.max_batch_rows = 16;
    registry_options.serving.queue.max_batch_delay = microseconds(100);
    auto registry = ModelRegistry::Create(registry_options);
    ASSERT_TRUE(registry.ok()) << registry.status().ToString();
    registry_ = std::move(registry).MoveValue();

    alpha_ = FlatOf(TrainForest(21));
    beta_ = FlatOf(TrainForest(22, /*num_trees=*/7));
    ASSERT_TRUE(registry_->Load("alpha", alpha_).ok());
    ASSERT_TRUE(registry_->Load("beta", beta_).ok());

    SocketServerOptions server_options;
    server_options.default_model = "alpha";
    auto server = SocketServer::Create(registry_.get(), server_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).MoveValue();
  }

  SocketClient MakeClient(std::string model_id = "") {
    SocketClientOptions options;
    options.port = server_->port();
    options.recv_timeout = std::chrono::seconds(5);
    options.model_id = std::move(model_id);
    return SocketClient(options);
  }

  std::vector<float> Probe(uint64_t salt) const {
    std::vector<float> x(6);  // TrainForest default feature count
    Rng rng(salt);
    for (auto& v : x) {
      v = static_cast<float>(rng.UniformRealRange(-2.0, 2.0));
    }
    return x;
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
    if (registry_ != nullptr) registry_->Shutdown();
    if (server_ != nullptr) {
      const WireStats stats = server_->stats();
      EXPECT_EQ(stats.requests_received + stats.models_requests,
                stats.responses_sent + stats.refusals_sent +
                    stats.responses_dropped);
      EXPECT_EQ(stats.active_connections, 0u);
    }
  }

  std::shared_ptr<const predict::FlatEnsemble> alpha_;
  std::shared_ptr<const predict::FlatEnsemble> beta_;
  std::unique_ptr<ModelRegistry> registry_;
  std::unique_ptr<SocketServer> server_;
};

TEST_F(WireRegistryLoopbackTest, V1ClientLandsOnDefaultModelBitIdentical) {
  StartRegistryServer();
  SocketClient client = MakeClient();  // empty model id = protocol v1
  for (uint64_t i = 0; i < 12; ++i) {
    const std::vector<float> x = Probe(i);
    auto wire_result = client.Predict(x);
    ASSERT_TRUE(wire_result.ok()) << wire_result.status().ToString();
    auto local = registry_->Predict("alpha", x);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(wire_result.value().label, local.value().label);
    EXPECT_EQ(wire_result.value().votes, local.value().votes);
  }
  EXPECT_EQ(server_->stats().requests_received, 12u);
}

TEST_F(WireRegistryLoopbackTest, V2ClientTargetsNamedModelBitIdentical) {
  StartRegistryServer();
  SocketClient client = MakeClient("beta");
  for (uint64_t i = 0; i < 12; ++i) {
    const std::vector<float> x = Probe(100 + i);
    auto wire_result = client.Predict(x);
    ASSERT_TRUE(wire_result.ok()) << wire_result.status().ToString();
    auto local = registry_->Predict("beta", x);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(wire_result.value().label, local.value().label);
    EXPECT_EQ(wire_result.value().votes, local.value().votes);
  }
}

TEST_F(WireRegistryLoopbackTest, ResponsesEchoTheRequestFrameVersion) {
  StartRegistryServer();
  auto raw = ConnectTcpLoopback(server_->port(), std::chrono::seconds(5));
  ASSERT_TRUE(raw.ok());
  FrameDecoder decoder;

  PredictRequestMsg v1 = SampleRequest(1);
  RawWriteAll(raw.value(), EncodePredictRequest(v1, kWireVersion));
  std::optional<Frame> reply = RawReadFrame(raw.value(), &decoder);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kPredictResponse);
  EXPECT_EQ(reply->version, kWireVersion);  // v1 in, v1 out

  PredictRequestMsg v2 = SampleRequest(2);
  v2.model_id = "beta";
  RawWriteAll(raw.value(), EncodePredictRequest(v2, kWireVersionMultiModel));
  reply = RawReadFrame(raw.value(), &decoder);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, FrameType::kPredictResponse);
  EXPECT_EQ(reply->version, kWireVersionMultiModel);
}

TEST_F(WireRegistryLoopbackTest, UnknownModelIsTypedNotFoundConnectionKept) {
  StartRegistryServer();
  SocketClient client = MakeClient("ghost");
  auto refused = client.Predict(Probe(1));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kNotFound);
  // Addressing a missing model is a per-request mistake: the connection
  // survives and keeps answering.
  EXPECT_TRUE(client.Ping().ok());
  auto again = client.Predict(Probe(2));
  EXPECT_EQ(again.status().code(), StatusCode::kNotFound);
  const WireStats stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.refusals_sent, 2u);
}

TEST_F(WireRegistryLoopbackTest, ListModelsReturnsSortedLiveRows) {
  StartRegistryServer();
  ASSERT_TRUE(registry_->Predict("alpha", Probe(3)).ok());
  SocketClient client = MakeClient();
  auto models = client.ListModels();
  ASSERT_TRUE(models.ok()) << models.status().ToString();
  ASSERT_EQ(models.value().size(), 2u);
  EXPECT_EQ(models.value()[0].id, "alpha");
  EXPECT_EQ(models.value()[1].id, "beta");
  for (const ModelInfoMsg& row : models.value()) {
    EXPECT_EQ(row.state, static_cast<uint8_t>(ModelState::kServing));
  }
  EXPECT_EQ(models.value()[0].checksum, io::EnsembleChecksum(*alpha_));
  EXPECT_EQ(models.value()[1].checksum, io::EnsembleChecksum(*beta_));
  EXPECT_GE(models.value()[0].submitted, 1u);
  EXPECT_EQ(server_->stats().models_requests, 1u);
}

TEST_F(WireRegistryLoopbackTest, SlowModelNeverHoldsBackAnotherModelsReply) {
  // Bulkheads must survive the wire: while alpha's dispatcher is stalled
  // mid-batch, beta's reply still reaches its socket, and alpha's does not
  // overtake it. The assertion is about ordering, so it needs no sleeps —
  // only a stall far longer than beta's round trip.
  StartRegistryServer();
  FaultSpec stall;
  stall.stall = std::chrono::seconds(2);
  stall.max_fires = 1;
  ScopedFault fault("serve.batch.stall", stall);

  auto hot = ConnectTcpLoopback(server_->port(), std::chrono::seconds(5));
  auto cold = ConnectTcpLoopback(server_->port(), std::chrono::seconds(5));
  ASSERT_TRUE(hot.ok());
  ASSERT_TRUE(cold.ok());
  PredictRequestMsg hot_request = SampleRequest(1);
  hot_request.model_id = "alpha";
  hot_request.timeout = nanoseconds(0);
  RawWriteAll(hot.value(),
              EncodePredictRequest(hot_request, kWireVersionMultiModel));
  // The first batch since arming is alpha's: once the site has fired, its
  // dispatcher sits in the stall.
  while (fault.fires() == 0) std::this_thread::yield();

  PredictRequestMsg cold_request = SampleRequest(2);
  cold_request.model_id = "beta";
  cold_request.timeout = nanoseconds(0);
  RawWriteAll(cold.value(),
              EncodePredictRequest(cold_request, kWireVersionMultiModel));
  FrameDecoder decoder;
  std::optional<Frame> reply = RawReadFrame(cold.value(), &decoder);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kPredictResponse);
  auto msg = DecodePredictResponse(reply->body);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().request_id, 2u);

  pollfd hot_pending{hot.value().get(), POLLIN, 0};
  EXPECT_EQ(::poll(&hot_pending, 1, 0), 0) << "hot answered before cold";
}

TEST_F(WireRegistryLoopbackTest, RegistryServerRequiresADefaultModel) {
  ModelRegistryOptions registry_options;
  auto registry = ModelRegistry::Create(registry_options);
  ASSERT_TRUE(registry.ok());
  // No default_model: every v1 frame would be unroutable, so Create refuses
  // up front instead of failing per request.
  auto server = SocketServer::Create(registry.value().get(), {});
  ASSERT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(WireRegistryLoopbackTest, ClientRefusesOversizeModelIdBeforeDialing) {
  StartRegistryServer();
  SocketClient client = MakeClient(std::string(300, 'm'));
  auto refused = client.Predict(Probe(4));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(client.connected());  // refused before any bytes moved
}

// ---------------------------------------------------------------------------
// Acceptance matrix: determinism across connections × fault schedules

struct FaultSchedule {
  const char* name;
  const char* site;      // nullptr = no fault armed
  double probability;
};

TEST(WireDeterminismMatrixTest, CompletedResponsesBitIdenticalUnderFaults) {
  const forest::RandomForest forest = TrainForest(11);
  const auto flat = FlatOf(forest);

  // Reference answers from a pure in-process registry, computed once.
  const size_t kProbes = 24;
  std::vector<std::vector<float>> probes;
  std::vector<PredictResult> reference;
  {
    auto local = MakeOneModelRegistry(flat);
    Rng rng(42);
    for (size_t i = 0; i < kProbes; ++i) {
      std::vector<float> x(flat->num_features());
      for (auto& v : x) {
        v = static_cast<float>(rng.UniformRealRange(-2.0, 2.0));
      }
      auto result = local->Predict(kModel, x);
      ASSERT_TRUE(result.ok());
      probes.push_back(std::move(x));
      reference.push_back(std::move(result).MoveValue());
    }
    local->Shutdown();
  }

  const FaultSchedule kSchedules[] = {
      {"none", nullptr, 0.0},
      {"short-read", "serve.wire.read.short", 0.3},
      {"mid-frame-reset", "serve.wire.read.reset", 0.05},
      {"accept-fail", "serve.wire.accept.fail", 0.3},
  };
  const size_t kConnections[] = {1, 4, 16};

  for (const FaultSchedule& schedule : kSchedules) {
    for (const size_t num_connections : kConnections) {
      SCOPED_TRACE(std::string("schedule=") + schedule.name +
                   " connections=" + std::to_string(num_connections));
      auto registry = MakeOneModelRegistry(flat);
      auto server =
          SocketServer::Create(registry.get(), OneModelServerOptions());
      ASSERT_TRUE(server.ok());

      std::optional<ScopedFault> fault;
      if (schedule.site != nullptr) {
        FaultSpec spec;
        spec.probability = schedule.probability;
        spec.seed = 0xFA017 + num_connections;
        fault.emplace(schedule.site, spec);
      }

      std::atomic<uint64_t> completed{0};
      std::atomic<uint64_t> failed{0};
      std::atomic<uint64_t> mismatched{0};
      {
        ThreadPool clients(num_connections);
        for (size_t c = 0; c < num_connections; ++c) {
          ASSERT_TRUE(clients.Submit([&, c] {
            SocketClientOptions client_options;
            client_options.port = server.value()->port();
            SocketClient client(client_options);
            RetryPolicy policy;
            policy.max_attempts = 8;
            policy.initial_backoff = milliseconds(1);
            policy.max_backoff = milliseconds(8);
            policy.seed = c + 1;
            for (size_t i = 0; i < kProbes; ++i) {
              const size_t at = (c + i) % kProbes;
              auto result = client.PredictWithRetry(probes[at], policy);
              if (!result.ok()) {
                failed.fetch_add(1, std::memory_order_relaxed);
                continue;
              }
              completed.fetch_add(1, std::memory_order_relaxed);
              if (result.value().label != reference[at].label ||
                  result.value().votes != reference[at].votes) {
                mismatched.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }).ok());
        }
        clients.Shutdown();
      }
      fault.reset();  // disarm before drain so shutdown I/O is clean

      server.value()->Shutdown();
      const WireStats stats = server.value()->stats();
      registry->Shutdown();

      // The wire may change WHICH requests complete — never their value.
      EXPECT_EQ(mismatched.load(), 0u);
      EXPECT_GT(completed.load(), 0u);
      if (schedule.site == nullptr) {
        EXPECT_EQ(failed.load(), 0u);
        EXPECT_EQ(completed.load(), num_connections * kProbes);
      }
      // Exactly-once accounting closes in every cell.
      EXPECT_EQ(stats.requests_received + stats.models_requests,
                stats.responses_sent + stats.refusals_sent +
                    stats.responses_dropped);
      EXPECT_EQ(stats.active_connections, 0u);
      EXPECT_EQ(stats.connections_accepted, stats.connections_closed);
    }
  }
}

}  // namespace
}  // namespace treewm::serve::wire
