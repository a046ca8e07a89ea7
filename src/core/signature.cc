#include "core/signature.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace treewm::core {

Result<Signature> Signature::FromBits(std::vector<uint8_t> bits) {
  if (bits.empty()) return Status::InvalidArgument("signature must be non-empty");
  for (uint8_t b : bits) {
    if (b != 0 && b != 1) return Status::InvalidArgument("signature bits must be 0/1");
  }
  return Signature(std::move(bits));
}

Signature Signature::Random(size_t length, double ones_fraction, Rng* rng) {
  const size_t ones = std::min(
      length, static_cast<size_t>(
                  std::llround(ones_fraction * static_cast<double>(length))));
  std::vector<uint8_t> bits(length, 0);
  for (size_t i = 0; i < ones; ++i) bits[i] = 1;
  rng->Shuffle(&bits);
  return Signature(std::move(bits));
}

Result<Signature> Signature::FromBitString(const std::string& text) {
  std::vector<uint8_t> bits;
  bits.reserve(text.size());
  for (char c : text) {
    if (c == '0') {
      bits.push_back(0);
    } else if (c == '1') {
      bits.push_back(1);
    } else {
      return Status::ParseError(StrFormat("invalid signature character '%c'", c));
    }
  }
  return FromBits(std::move(bits));
}

Signature Signature::FromText(const std::string& text) {
  std::vector<uint8_t> bits;
  bits.reserve(text.size() * 8);
  for (unsigned char byte : text) {
    for (int i = 7; i >= 0; --i) {
      bits.push_back(static_cast<uint8_t>((byte >> i) & 1));
    }
  }
  if (bits.empty()) bits.push_back(0);  // degenerate but non-empty
  return Signature(std::move(bits));
}

size_t Signature::NumOnes() const {
  return static_cast<size_t>(std::count(bits_.begin(), bits_.end(), uint8_t{1}));
}

std::string Signature::ToBitString() const {
  std::string out;
  out.reserve(bits_.size());
  for (uint8_t b : bits_) out.push_back(b ? '1' : '0');
  return out;
}

JsonValue Signature::ToJson() const {
  JsonValue out = JsonValue::MakeObject();
  out.Set("bits", JsonValue(ToBitString()));
  return out;
}

Result<Signature> Signature::FromJson(const JsonValue& json) {
  TREEWM_ASSIGN_OR_RETURN(const JsonValue* bits, json.Get("bits"));
  if (!bits->is_string()) return Status::ParseError("'bits' must be a string");
  return FromBitString(bits->AsString());
}

}  // namespace treewm::core
