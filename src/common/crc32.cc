#include "common/crc32.h"

#include <array>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
/// Compiles the folding kernel for PCLMULQDQ + SSE4.1 and leaves the rest
/// of the binary baseline x86-64; CpuCanFold() decides whether it runs.
#define TREEWM_CRC32_FOLD_TARGET __attribute__((target("pclmul,sse4.1")))
#endif

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

/// Slicing-by-8 over any span: the portable path, and the tail of the
/// folded one.
uint32_t UpdateSliced(uint32_t state, const uint8_t* p, size_t n) {
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

#if defined(__x86_64__)

/// The folding kernel's span: 64 bytes or more, in whole 16-byte blocks.
constexpr size_t kFoldMinBytes = 64;

/// Constants for 0xEDB88320 in the bit-reflected domain, named as in
/// Gopal et al. (the values zlib and Linux use): k1/k2 are the reflected
/// x^(4*128+32) and x^(4*128-32) mod P and move a lane 64 bytes ahead,
/// k3/k4 the same for 16 bytes, k5 = x^64 mod P folds 96 bits to 64, and
/// P with μ = x^64 / P is the Barrett pair.
constexpr int64_t kK1 = 0x154442bd4, kK2 = 0x1c6e41596;
constexpr int64_t kK3 = 0x1751997d0, kK4 = 0x0ccaa009e;
constexpr int64_t kK5 = 0x163cd6124;
constexpr int64_t kP = 0x1db710641, kMu = 0x1f7011641;

TREEWM_CRC32_FOLD_TARGET __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// `acc` moved ahead by the distance `k` encodes (each qword times its
/// constant), plus the block found there.
TREEWM_CRC32_FOLD_TARGET __m128i FoldInto(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Carry-less-multiply folding (Gopal et al., Intel 2009) over `n` bytes,
/// n >= kFoldMinBytes and a multiple of 16: four lanes fold 64 bytes a
/// step, fold into one lane, take 16 bytes a step, then fold 128 bits to
/// 64 and Barrett-reduce to the 32-bit state. Same state in, same state
/// out as UpdateSliced over the same bytes.
TREEWM_CRC32_FOLD_TARGET uint32_t UpdateFolded(uint32_t state, const uint8_t* p,
                                               size_t n) {
  __m128i lane0 = _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i lane1 = Load128(p + 16);
  __m128i lane2 = Load128(p + 32);
  __m128i lane3 = Load128(p + 48);
  p += 64;
  n -= 64;

  const __m128i fold64 = _mm_set_epi64x(kK2, kK1);
  for (; n >= 64; p += 64, n -= 64) {
    lane0 = FoldInto(lane0, fold64, Load128(p));
    lane1 = FoldInto(lane1, fold64, Load128(p + 16));
    lane2 = FoldInto(lane2, fold64, Load128(p + 32));
    lane3 = FoldInto(lane3, fold64, Load128(p + 48));
  }

  const __m128i fold16 = _mm_set_epi64x(kK4, kK3);
  __m128i acc = FoldInto(lane0, fold16, lane1);
  acc = FoldInto(acc, fold16, lane2);
  acc = FoldInto(acc, fold16, lane3);
  for (; n >= 16; p += 16, n -= 16) acc = FoldInto(acc, fold16, Load128(p));

  // 128 -> 96 bits: the low qword times x^(128-32) onto the high qword.
  const __m128i low32s = _mm_setr_epi32(-1, 0, -1, 0);
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8), _mm_clmulepi64_si128(acc, fold16, 0x10));
  // 96 -> 64 bits: the low 32 bits times x^64 onto the upper 64.
  acc = _mm_xor_si128(_mm_srli_si128(acc, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(acc, low32s),
                                           _mm_cvtsi64_si128(kK5), 0x00));
  // Barrett: two multiplies (by μ, then by P) cancel all but the 32-bit
  // remainder, which lands in bits 32..63.
  const __m128i barrett = _mm_set_epi64x(kMu, kP);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32s), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32s), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(acc, q), 1));
}

/// Chosen once, at the first span long enough to fold. Both kernels
/// compute one CRC, so the choice never shows in a result.
bool CpuCanFold() {
  static const bool can_fold = [] {
    // A first call from a static initializer may run before libgcc's own
    // CPU probe; probing again is harmless.
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return can_fold;
}

#endif  // __x86_64__

}  // namespace

uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data) {
  const uint8_t* p = data.data();
  size_t n = data.size();
#if defined(__x86_64__)
  if (n >= kFoldMinBytes && CpuCanFold()) {
    const size_t folded = n & ~size_t{15};
    state = UpdateFolded(state, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return UpdateSliced(state, p, n);
}

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Finish(Crc32Update(Crc32Init(), data));
}

}  // namespace treewm
