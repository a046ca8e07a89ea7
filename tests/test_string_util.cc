// Unit tests for string helpers.

#include "common/string_util.h"

#include <gtest/gtest.h>

namespace treewm {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("x=%d y=%.2f s=%s", 3, 1.5, "hi"), "x=3 y=1.50 s=hi");
  EXPECT_EQ(StrFormat("%s", ""), "");
  EXPECT_EQ(StrFormat("%zu", static_cast<size_t>(42)), "42");
}

TEST(StrSplitTest, SplitsAndKeepsEmptyFields) {
  EXPECT_EQ(StrSplit("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(StrTrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(StrTrim("  hi  "), "hi");
  EXPECT_EQ(StrTrim("\t\nx\r "), "x");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
  EXPECT_EQ(StrTrim("a b"), "a b");
}

TEST(StrToLowerTest, AsciiOnly) {
  EXPECT_EQ(StrToLower("MiXeD-42"), "mixed-42");
}

TEST(ParseDoubleTest, AcceptsValidNumbers) {
  double v = 0.0;
  EXPECT_TRUE(ParseDouble("3.25", &v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(ParseDouble("  -1e-3 ", &v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  EXPECT_TRUE(ParseDouble("0", &v));
  EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("1e999", &v));  // overflow
}

TEST(ParseInt64Test, AcceptsValidIntegers) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64(" -7 ", &v));
  EXPECT_EQ(v, -7);
}

TEST(ParseInt64Test, RejectsGarbage) {
  int64_t v = 0;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("3.5", &v));
  EXPECT_FALSE(ParseInt64("12a", &v));
}

}  // namespace
}  // namespace treewm
