// Tests for common/crc32: the standard CRC-32 known answers, and the
// slicing-by-8 implementation against the classic byte-at-a-time table
// loop kept below as the executable spec — at every length and start
// offset of a short buffer, at every split point of the incremental form,
// and on one large random buffer. The wire frames, the TWSN snapshots and
// the registry's image checksums all store this CRC, so it must never
// drift from the spec.

#include "common/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace treewm {
namespace {

/// The spec: reflected IEEE 802.3 polynomial 0xEDB88320, init and final
/// xor 0xFFFFFFFF, one table lookup per byte.
uint32_t SpecCrc32(std::span<const uint8_t> data) {
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
  uint32_t state = 0xFFFFFFFFu;
  for (uint8_t b : data) state = kTable[(state ^ b) & 0xFFu] ^ (state >> 8);
  return state ^ 0xFFFFFFFFu;
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

}  // namespace
}  // namespace treewm
