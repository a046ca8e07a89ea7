// Unit tests for the owner signature.

#include "core/signature.h"

#include <gtest/gtest.h>

#include <cmath>

namespace treewm::core {
namespace {

TEST(SignatureTest, FromBitsValidates) {
  EXPECT_TRUE(Signature::FromBits({0, 1, 1, 0}).ok());
  EXPECT_FALSE(Signature::FromBits({}).ok());
  EXPECT_FALSE(Signature::FromBits({0, 2}).ok());
}

TEST(SignatureTest, CountsAndAccessors) {
  auto sigma = Signature::FromBits({1, 0, 1, 1, 0}).MoveValue();
  EXPECT_EQ(sigma.length(), 5u);
  EXPECT_EQ(sigma.NumOnes(), 3u);
  EXPECT_EQ(sigma.NumZeros(), 2u);
  EXPECT_EQ(sigma.bit(0), 1);
  EXPECT_EQ(sigma.bit(1), 0);
  EXPECT_EQ(sigma.ToBitString(), "10110");
}

TEST(SignatureTest, RandomHasExactOnesCount) {
  Rng rng(1);
  for (double fraction : {0.0, 0.1, 0.5, 0.6, 1.0}) {
    auto sigma = Signature::Random(40, fraction, &rng);
    EXPECT_EQ(sigma.length(), 40u);
    EXPECT_EQ(sigma.NumOnes(),
              static_cast<size_t>(std::llround(fraction * 40.0)));
  }
}

TEST(SignatureTest, RandomShufflesPositions) {
  Rng rng(2);
  auto a = Signature::Random(64, 0.5, &rng);
  auto b = Signature::Random(64, 0.5, &rng);
  EXPECT_NE(a.ToBitString(), b.ToBitString());  // astronomically unlikely to tie
}

TEST(SignatureTest, BitStringRoundTrip) {
  auto sigma = Signature::FromBitString("0101101").MoveValue();
  EXPECT_EQ(sigma.ToBitString(), "0101101");
  EXPECT_FALSE(Signature::FromBitString("01x1").ok());
  EXPECT_FALSE(Signature::FromBitString("").ok());
}

TEST(SignatureTest, TextEncodingIsEightBitsPerByte) {
  const std::string owner = "Alice&Co 2025";
  EXPECT_EQ(Signature::FromText(owner).length(), owner.size() * 8);
}

TEST(SignatureTest, KnownTextBits) {
  // 'A' = 0x41 = 01000001.
  auto sigma = Signature::FromText("A");
  EXPECT_EQ(sigma.ToBitString(), "01000001");
}

TEST(SignatureTest, JsonRoundTrip) {
  auto sigma = Signature::FromBitString("110010").MoveValue();
  auto parsed = Signature::FromJson(sigma.ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), sigma);
}

TEST(SignatureTest, EqualityOperator) {
  auto a = Signature::FromBitString("101").MoveValue();
  auto b = Signature::FromBitString("101").MoveValue();
  auto c = Signature::FromBitString("100").MoveValue();
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace treewm::core
