// Unit tests for CSV import.

#include "data/csv.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/json.h"

namespace treewm::data {
namespace {

TEST(CsvParseTest, BasicLastColumnLabel) {
  auto result = ParseCsv("0.1,0.2,1\n0.3,0.4,-1\n");
  ASSERT_TRUE(result.ok());
  const Dataset& d = result.value();
  EXPECT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_EQ(d.Label(0), kPositive);
  EXPECT_EQ(d.Label(1), kNegative);
  EXPECT_FLOAT_EQ(d.At(1, 1), 0.4f);
}

TEST(CsvParseTest, ZeroOneLabelsMapToMinusPlus) {
  auto result = ParseCsv("1.0,0\n2.0,1\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().Label(0), kNegative);
  EXPECT_EQ(result.value().Label(1), kPositive);
}

TEST(CsvParseTest, HeaderSkipped) {
  CsvOptions options;
  options.has_header = true;
  auto result = ParseCsv("f1,f2,label\n0.5,0.6,1\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 1u);
}

TEST(CsvParseTest, CustomLabelColumn) {
  CsvOptions options;
  options.label_column = 0;
  auto result = ParseCsv("1,0.7,0.8\n-1,0.9,1.0\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_features(), 2u);
  EXPECT_EQ(result.value().Label(0), kPositive);
  EXPECT_FLOAT_EQ(result.value().At(0, 0), 0.7f);
}

TEST(CsvParseTest, SkipsBlankLines) {
  auto result = ParseCsv("\n0.1,1\n\n0.2,-1\n\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_rows(), 2u);
}

TEST(CsvParseTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseCsv("").ok());
  EXPECT_FALSE(ParseCsv("justonefield\n").ok());
  EXPECT_FALSE(ParseCsv("0.1,abc\n").ok());
  EXPECT_FALSE(ParseCsv("0.1,7\n").ok());  // label 7 invalid
  // Labels are exactly -1, 0 or 1: nothing is rounded or wrapped into one.
  for (const char* label : {"4294967297", "4294967296", "1e300", "nan", "0.6"}) {
    EXPECT_FALSE(ParseCsv(std::string("0.1,") + label + "\n").ok()) << label;
  }
  CsvOptions options;
  options.label_column = 9;
  EXPECT_FALSE(ParseCsv("0.1,1\n", options).ok());
}

TEST(CsvLoadTest, LoadsAFile) {
  const std::string path = ::testing::TempDir() + "/treewm_csv_test.csv";
  ASSERT_TRUE(WriteStringToFile(path, "0.125,0.25,0.5,1\n0.75,0,1,-1\n").ok());
  auto loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().num_rows(), 2u);
  ASSERT_EQ(loaded.value().num_features(), 3u);
  EXPECT_EQ(loaded.value().Label(0), kPositive);
  EXPECT_EQ(loaded.value().Label(1), kNegative);
  EXPECT_FLOAT_EQ(loaded.value().At(0, 0), 0.125f);
  EXPECT_FLOAT_EQ(loaded.value().At(1, 2), 1.0f);
  std::remove(path.c_str());
}

TEST(CsvLoadTest, MissingFileFails) {
  EXPECT_FALSE(LoadCsv("/no/such/file.csv").ok());
}

}  // namespace
}  // namespace treewm::data
