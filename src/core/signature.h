// The model owner's multi-bit signature σ.
//
// A signature is a bit string of length m (one bit per ensemble tree). Bit 0
// forces tree i to classify the trigger set correctly, bit 1 forces it to
// misclassify (§3.2). Signatures can be random (the paper's experiments) or
// encode an owner identity string (multi-bit watermarking in the survey's
// taxonomy).

#ifndef TREEWM_CORE_SIGNATURE_H_
#define TREEWM_CORE_SIGNATURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"

namespace treewm::core {

/// An immutable bit string identifying the model owner.
class Signature {
 public:
  /// Wraps explicit bits (values must be 0/1).
  [[nodiscard]] static Result<Signature> FromBits(std::vector<uint8_t> bits);

  /// Random signature of `length` bits with exactly
  /// round(ones_fraction*length) ones, positions shuffled.
  static Signature Random(size_t length, double ones_fraction, Rng* rng);

  /// Parses "0101..." text.
  [[nodiscard]] static Result<Signature> FromBitString(const std::string& text);

  /// Encodes an identity string as its UTF-8 bytes, MSB first (8 bits per
  /// byte). The resulting length is 8*text.size().
  static Signature FromText(const std::string& text);

  /// Number of bits m.
  size_t length() const { return bits_.size(); }

  /// Number of bits set to 1 (trees forced to misclassify).
  size_t NumOnes() const;

  /// Number of bits set to 0 (the paper's m').
  size_t NumZeros() const { return length() - NumOnes(); }

  /// Bit accessor.
  uint8_t bit(size_t i) const { return bits_[i]; }
  const std::vector<uint8_t>& bits() const { return bits_; }

  /// "0101..." rendering.
  std::string ToBitString() const;

  JsonValue ToJson() const;
  [[nodiscard]] static Result<Signature> FromJson(const JsonValue& json);

  bool operator==(const Signature& other) const { return bits_ == other.bits_; }

 private:
  explicit Signature(std::vector<uint8_t> bits) : bits_(std::move(bits)) {}
  std::vector<uint8_t> bits_;
};

}  // namespace treewm::core

#endif  // TREEWM_CORE_SIGNATURE_H_
