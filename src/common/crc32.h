// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) shared by every
// layer that checksums untrusted bytes: the wire framing (serve/wire/frame),
// the binary ensemble snapshot format (io/ensemble_snapshot), and the model
// registry's image checksums. One implementation means one set of test
// vectors and no chance of two layers disagreeing about what "the" CRC of a
// byte range is.
//
// Two kernels compute it, and both compute the same CRC as the classic
// byte-at-a-time table loop, so no stored or transmitted checksum depends
// on which one ran; the byte loop in tests/test_crc32.cc is the spec both
// are checked against.
//   * Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
//     Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009) takes
//     every span of 64 bytes or more, down to its last 0–15 bytes, on an
//     x86-64 CPU with PCLMULQDQ and SSE4.1: four 128-bit lanes fold 64
//     bytes per step, then one lane 16, and a Barrett reduction yields the
//     32-bit state. The CPU is checked once, at the first such span; the
//     kernel is compiled for those features through a function attribute,
//     so the rest of the binary stays baseline x86-64.
//   * Slicing-by-8 (Kounavis & Berry, "A Systematic Approach to Building
//     High Performance Software-Based CRC Generators", ISCC 2005) takes the
//     rest: shorter spans, the fold's 0–15-byte tail, and every span on
//     other CPUs and non-x86 builds. Eight 256-entry tables fold eight
//     bytes per step, and a byte loop takes its own tail.

#ifndef TREEWM_COMMON_CRC32_H_
#define TREEWM_COMMON_CRC32_H_

#include <cstdint>
#include <span>

namespace treewm {

/// CRC-32 of `data` (init 0xFFFFFFFF, final xor 0xFFFFFFFF — the standard
/// "CRC-32" everyone's `crc32` tool computes).
uint32_t Crc32(std::span<const uint8_t> data);

/// Incremental form: feed `Crc32Init()` through any number of
/// `Crc32Update()` calls, then `Crc32Finish()`. `Crc32(d)` ==
/// `Crc32Finish(Crc32Update(Crc32Init(), d))`.
inline constexpr uint32_t Crc32Init() { return 0xFFFFFFFFu; }
uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data);
inline constexpr uint32_t Crc32Finish(uint32_t state) { return state ^ 0xFFFFFFFFu; }

}  // namespace treewm

#endif  // TREEWM_COMMON_CRC32_H_
