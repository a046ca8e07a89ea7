#include "common/crc32.h"

#include <array>
#include <cstddef>

namespace treewm {
namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/// tables[0] is the classic byte-at-a-time table. tables[k][b] is the state
/// contribution of byte b followed by k zero bytes, so one lookup per
/// table folds eight input bytes into the state at once.
constexpr Crc32Tables BuildTables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

alignas(64) constexpr Crc32Tables kTables = BuildTables();

/// Little-endian 32-bit load; compilers fold the shifts into one move.
uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = state ^ LoadU32(p);
    const uint32_t hi = LoadU32(p + 4);
    state = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = kTables[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Finish(Crc32Update(Crc32Init(), data));
}

}  // namespace treewm
