// Tests for common/crc32: the standard CRC-32 known answers, and the
// implementation against the classic byte-at-a-time table loop kept below
// as the executable spec — at every length and start offset of a short
// buffer, at every split point of the incremental form, and on one large
// random buffer. On an x86-64 CPU with PCLMULQDQ, spans of 64 bytes or more
// run the carry-less-multiply fold and their last 0–15 bytes, like every
// shorter span, run slicing-by-8; elsewhere slicing-by-8 runs alone. The
// cases over lengths 0–1,024 at 16 offsets and over chained updates from
// arbitrary states reach every branch of both on a folding CPU. The wire
// frames, the TWSN snapshots and the registry's image checksums all store
// this CRC, so it must never drift from the spec.

#include "common/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace treewm {
namespace {

/// The spec's state update: reflected IEEE 802.3 polynomial 0xEDB88320,
/// one table lookup per byte.
uint32_t SpecCrc32Update(uint32_t state, std::span<const uint8_t> data) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  for (uint8_t b : data) state = kTable[(state ^ b) & 0xFFu] ^ (state >> 8);
  return state;
}

/// The spec: init and final xor 0xFFFFFFFF around SpecCrc32Update.
uint32_t SpecCrc32(std::span<const uint8_t> data) {
  return SpecCrc32Update(0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

std::span<const uint8_t> BytesOf(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

std::vector<uint8_t> RandomBytes(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextUint64());
  return bytes;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32(BytesOf("")), 0x00000000u);
  EXPECT_EQ(Crc32(BytesOf("a")), 0xE8B7BE43u);
  EXPECT_EQ(Crc32(BytesOf("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(BytesOf("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
  // The spec itself is pinned by the same answers.
  EXPECT_EQ(SpecCrc32(BytesOf("123456789")), 0xCBF43926u);
}

TEST(Crc32Test, MatchesSpecAtEveryLengthAndStartOffset) {
  const std::vector<uint8_t> bytes = RandomBytes(1, 256 + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 256; ++len) {
      const std::span<const uint8_t> data(bytes.data() + offset, len);
      ASSERT_EQ(Crc32(data), SpecCrc32(data))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, IncrementalFormMatchesSpecAtEverySplit) {
  const std::vector<uint8_t> bytes = RandomBytes(2, 300);
  const uint32_t expected = SpecCrc32(bytes);
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const std::span<const uint8_t> all(bytes);
    uint32_t state = Crc32Init();
    state = Crc32Update(state, all.first(split));
    state = Crc32Update(state, all.subspan(split));
    ASSERT_EQ(Crc32Finish(state), expected) << "split " << split;
  }
}

TEST(Crc32Test, MatchesSpecOnOneMebibyte) {
  const std::vector<uint8_t> bytes = RandomBytes(20261017, size_t{1} << 20);
  EXPECT_EQ(Crc32(bytes), SpecCrc32(bytes));
}

// Lengths 64 and up reach the four-lane fold (128 and up loop in it), the
// 16-byte fold and every tail length 0–15; 16 offsets cover every
// alignment of a 16-byte load.
TEST(Crc32Test, MatchesSpecThroughEveryFoldAndTail) {
  const std::vector<uint8_t> bytes = RandomBytes(3, 1024 + 16);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const std::span<const uint8_t> data(bytes.data() + offset, len);
      ASSERT_EQ(Crc32(data), SpecCrc32(data))
          << "offset " << offset << " length " << len;
    }
  }
}

// A wire frame's CRC continues from the header's state into the body, so
// the fold must take any state in. The buffer is one dispute request frame
// long (3,181 bytes).
TEST(Crc32Test, ChainedUpdatesFromArbitraryStatesMatchSpecAtEverySplit) {
  const std::vector<uint8_t> bytes = RandomBytes(4, 3181);
  const std::span<const uint8_t> all(bytes);
  Rng rng(5);
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t start = static_cast<uint32_t>(rng.NextUint64());
    const uint32_t state =
        Crc32Update(Crc32Update(start, all.first(split)), all.subspan(split));
    ASSERT_EQ(state, SpecCrc32Update(start, all))
        << "split " << split << " start state " << start;
  }
}

}  // namespace
}  // namespace treewm
