// Unit tests for the JSON value model, parser and writer.

#include "common/json.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace treewm {
namespace {

TEST(JsonValueTest, TypePredicates) {
  EXPECT_TRUE(JsonValue().is_null());
  EXPECT_TRUE(JsonValue(true).is_bool());
  EXPECT_TRUE(JsonValue(3.5).is_number());
  EXPECT_TRUE(JsonValue("hi").is_string());
  EXPECT_TRUE(JsonValue::MakeArray().is_array());
  EXPECT_TRUE(JsonValue::MakeObject().is_object());
}

TEST(JsonValueTest, NumericAccessors) {
  EXPECT_DOUBLE_EQ(JsonValue(2.5).ToDouble().value(), 2.5);
  EXPECT_EQ(JsonValue(int64_t{42}).ToInt64().value(), 42);
  EXPECT_EQ(JsonValue(-3).ToInt64().value(), -3);
}

TEST(JsonValueTest, ObjectSetFindGet) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("a", JsonValue(1));
  obj.Set("b", JsonValue("x"));
  EXPECT_NE(obj.Find("a"), nullptr);
  EXPECT_EQ(obj.Find("missing"), nullptr);
  ASSERT_TRUE(obj.Get("b").ok());
  EXPECT_EQ(obj.Get("b").value()->AsString(), "x");
  EXPECT_EQ(obj.Get("zzz").status().code(), StatusCode::kNotFound);
}

TEST(JsonValueTest, ArrayAppend) {
  JsonValue arr = JsonValue::MakeArray();
  arr.Append(JsonValue(1));
  arr.Append(JsonValue(2));
  EXPECT_EQ(arr.AsArray().size(), 2u);
}

TEST(JsonDumpTest, CompactScalars) {
  EXPECT_EQ(JsonValue().Dump(), "null");
  EXPECT_EQ(JsonValue(true).Dump(), "true");
  EXPECT_EQ(JsonValue(false).Dump(), "false");
  EXPECT_EQ(JsonValue(3).Dump(), "3");
  EXPECT_EQ(JsonValue(-17).Dump(), "-17");
  EXPECT_EQ(JsonValue("hi").Dump(), "\"hi\"");
}

TEST(JsonDumpTest, IntegralDoublesHaveNoDecimalPoint) {
  EXPECT_EQ(JsonValue(5.0).Dump(), "5");
  EXPECT_EQ(JsonValue(-2.0).Dump(), "-2");
}

TEST(JsonDumpTest, EscapesControlAndQuotes) {
  EXPECT_EQ(JsonValue("a\"b").Dump(), "\"a\\\"b\"");
  EXPECT_EQ(JsonValue("a\nb").Dump(), "\"a\\nb\"");
  EXPECT_EQ(JsonValue("a\\b").Dump(), "\"a\\\\b\"");
  EXPECT_EQ(JsonValue(std::string("a\x01") + "b").Dump(), "\"a\\u0001b\"");
}

TEST(JsonDumpTest, ObjectKeysAreSorted) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("zebra", JsonValue(1));
  obj.Set("apple", JsonValue(2));
  EXPECT_EQ(obj.Dump(), "{\"apple\":2,\"zebra\":1}");
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(JsonValue::Parse("null").value().is_null());
  EXPECT_EQ(JsonValue::Parse("true").value(), JsonValue(true));
  EXPECT_EQ(JsonValue::Parse("false").value(), JsonValue(false));
  EXPECT_DOUBLE_EQ(JsonValue::Parse("2.5").value().ToDouble().value(), 2.5);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-1e3").value().ToDouble().value(), -1000.0);
  EXPECT_EQ(JsonValue::Parse("\"hey\"").value().AsString(), "hey");
}

TEST(JsonParseTest, NestedStructure) {
  auto result = JsonValue::Parse(R"({"a": [1, 2, {"b": null}], "c": "d"})");
  ASSERT_TRUE(result.ok());
  const JsonValue& doc = result.value();
  ASSERT_TRUE(doc.is_object());
  const JsonValue* a = doc.Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->AsArray().size(), 3u);
  EXPECT_TRUE(a->AsArray()[2].Find("b")->is_null());
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(JsonValue::Parse(R"("a\"b")").value().AsString(), "a\"b");
  EXPECT_EQ(JsonValue::Parse(R"("a\nb")").value().AsString(), "a\nb");
  EXPECT_EQ(JsonValue::Parse(R"("aAb")").value().AsString(), "aAb");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(JsonValue::Parse(R"("😀")").value().AsString(), "\xF0\x9F\x98\x80");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(JsonValue::Parse("tru").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("1 2").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(JsonValue::Parse("\"bad\\escape\"").ok());
}

TEST(JsonParseTest, RejectsDeepNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonRoundTripTest, DumpThenParseIsIdentity) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("name", JsonValue("treewm"));
  obj.Set("pi", JsonValue(3.14159265358979));
  obj.Set("count", JsonValue(123));
  obj.Set("flag", JsonValue(true));
  JsonValue arr = JsonValue::MakeArray();
  for (int i = 0; i < 5; ++i) arr.Append(JsonValue(i * 0.1));
  obj.Set("values", std::move(arr));

  auto parsed = JsonValue::Parse(obj.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), obj);
}

TEST(JsonRoundTripTest, DoublesSurvive) {
  for (double v : {0.1, 1e-10, 1e300, -123.456789012345678, 2.2250738585072014e-308}) {
    auto parsed = JsonValue::Parse(JsonValue(v).Dump());
    ASSERT_TRUE(parsed.ok());
    EXPECT_DOUBLE_EQ(parsed.value().ToDouble().value(), v);
  }
}

TEST(JsonFileTest, WriteAndReadBack) {
  const std::string path = ::testing::TempDir() + "/treewm_json_test.json";
  ASSERT_TRUE(WriteStringToFile(path, "{\"x\": 1}").ok());
  auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(), "{\"x\": 1}");
  std::remove(path.c_str());
}

TEST(JsonFileTest, MissingFileFails) {
  auto result = ReadFileToString("/nonexistent/path/nowhere.json");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace treewm
