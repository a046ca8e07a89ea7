// Tests for model / bundle persistence.

#include "io/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/watermark.h"
#include "data/synthetic.h"

namespace treewm::io {
namespace {

forest::RandomForest TrainSmall(uint64_t seed) {
  auto data = data::synthetic::MakeBlobs(seed, 150, 5, 1.5);
  forest::ForestConfig config;
  config.num_trees = 5;
  config.seed = seed;
  return forest::RandomForest::Fit(data, {}, config).MoveValue();
}

core::WatermarkedModel MakeWatermarked(uint64_t seed) {
  auto data = data::synthetic::MakeBlobs(seed, 300, 6, 2.0);
  Rng rng(seed);
  auto sigma = core::Signature::Random(8, 0.5, &rng);
  core::WatermarkConfig config;
  config.seed = seed + 1;
  config.grid.max_depth_grid = {-1};
  config.grid.num_folds = 2;
  core::Watermarker watermarker(config);
  return watermarker.CreateWatermark(data, sigma).MoveValue();
}

TEST(ForestIoTest, SaveLoadRoundTrip) {
  auto forest = TrainSmall(1);
  const std::string path = ::testing::TempDir() + "/treewm_forest.json";
  ASSERT_TRUE(SaveForest(forest, path).ok());
  auto loaded = LoadForest(path);
  ASSERT_TRUE(loaded.ok());
  auto data = data::synthetic::MakeBlobs(2, 50, 5, 1.5);
  for (size_t i = 0; i < data.num_rows(); ++i) {
    EXPECT_EQ(loaded.value().PredictAll(data.Row(i)), forest.PredictAll(data.Row(i)));
  }
  std::remove(path.c_str());
}

TEST(ForestIoTest, LoadRejectsCorruptFile) {
  const std::string path = ::testing::TempDir() + "/treewm_corrupt.json";
  ASSERT_TRUE(WriteStringToFile(path, "{not json").ok());
  EXPECT_FALSE(LoadForest(path).ok());
  ASSERT_TRUE(WriteStringToFile(path, "{\"format_version\": 99}").ok());
  EXPECT_FALSE(LoadForest(path).ok());
  std::remove(path.c_str());
}

TEST(DatasetJsonTest, RoundTrip) {
  auto data = data::synthetic::MakeBlobs(3, 30, 4, 1.0);
  data.set_name("roundtrip");
  auto parsed = DatasetFromJson(DatasetToJson(data));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().name(), "roundtrip");
  ASSERT_EQ(parsed.value().num_rows(), data.num_rows());
  for (size_t i = 0; i < data.num_rows(); ++i) {
    EXPECT_EQ(parsed.value().Label(i), data.Label(i));
    for (size_t j = 0; j < data.num_features(); ++j) {
      EXPECT_FLOAT_EQ(parsed.value().At(i, j), data.At(i, j));
    }
  }
}

TEST(BundleIoTest, RoundTripPreservesEverything) {
  auto wm = MakeWatermarked(10);
  WatermarkBundle bundle = BundleFrom(wm);
  const std::string path = ::testing::TempDir() + "/treewm_bundle.json";
  ASSERT_TRUE(SaveBundle(bundle, path).ok());
  auto loaded = LoadBundle(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().signature, wm.signature);
  EXPECT_EQ(loaded.value().trigger_set.num_rows(), wm.trigger_set.num_rows());
  // The signature property survives the round trip.
  for (size_t i = 0; i < loaded.value().trigger_set.num_rows(); ++i) {
    const auto votes =
        loaded.value().model.PredictAll(loaded.value().trigger_set.Row(i));
    const int y = loaded.value().trigger_set.Label(i);
    for (size_t t = 0; t < loaded.value().signature.length(); ++t) {
      EXPECT_EQ(votes[t], loaded.value().signature.bit(t) == 0 ? y : -y);
    }
  }
  std::remove(path.c_str());
}

/// The first `width` columns of `d`, with its labels.
data::Dataset FirstColumns(const data::Dataset& d, size_t width) {
  data::Dataset out(width);
  for (size_t i = 0; i < d.num_rows(); ++i) {
    EXPECT_TRUE(out.AddRow(d.Row(i).first(width), d.Label(i)).ok());
  }
  return out;
}

TEST(BundleIoTest, RejectsInconsistentBundle) {
  auto wm = MakeWatermarked(20);
  JsonValue doc = BundleToJson(BundleFrom(wm));
  // Truncate the signature: length no longer matches the tree count.
  doc.Set("signature", core::Signature::FromBitString("01").MoveValue().ToJson());
  EXPECT_FALSE(BundleFromJson(doc).ok());
  // A trigger set narrower than the model: verifying it would read past
  // every trigger row.
  JsonValue narrow = BundleToJson(BundleFrom(wm));
  narrow.Set("trigger_set", DatasetToJson(FirstColumns(wm.trigger_set, 2)));
  auto loaded = BundleFromJson(narrow);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST(BundleIoTest, MissingFieldsFail) {
  JsonValue doc = JsonValue::MakeObject();
  doc.Set("format_version", JsonValue(kFormatVersion));
  EXPECT_FALSE(BundleFromJson(doc).ok());
}

// A bundle cut off mid-document (power loss, partial download) must be a
// typed error at every truncation point, never an assert or garbage model.
TEST(BundleIoTest, TruncatedFileFailsClosedAtEveryPrefix) {
  auto wm = MakeWatermarked(30);
  const std::string full = BundleToJson(BundleFrom(wm)).Dump();
  const std::string path = ::testing::TempDir() + "/treewm_truncated.json";
  // Step through prefixes coarsely (every 97 bytes) plus the final byte.
  for (size_t len = 0; len < full.size(); len += 97) {
    ASSERT_TRUE(WriteStringToFile(path, std::string_view(full).substr(0, len)).ok());
    auto loaded = LoadBundle(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
  ASSERT_TRUE(
      WriteStringToFile(path, std::string_view(full).substr(0, full.size() - 1)).ok());
  EXPECT_FALSE(LoadBundle(path).ok());
  std::remove(path.c_str());
}

// The registry cold-starts models from forest JSON when no snapshot
// exists; a forest file cut off at any point must stay a typed ParseError
// — the snapshot tests (test_snapshot.cc) hold the binary path to the same
// bar at every single byte.
TEST(ForestIoTest, TruncatedFileFailsClosedAtEveryPrefix) {
  auto forest = TrainSmall(40);
  const std::string path = ::testing::TempDir() + "/treewm_forest_trunc.json";
  ASSERT_TRUE(SaveForest(forest, path).ok());
  auto read_back = ReadFileToString(path);
  ASSERT_TRUE(read_back.ok());
  const std::string full = read_back.value();
  for (size_t len = 0; len < full.size(); len += 41) {
    ASSERT_TRUE(WriteStringToFile(path, std::string_view(full).substr(0, len)).ok());
    auto loaded = LoadForest(path);
    ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes parsed";
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
  ASSERT_TRUE(
      WriteStringToFile(path, std::string_view(full).substr(0, full.size() - 1)).ok());
  EXPECT_FALSE(LoadForest(path).ok());
  std::remove(path.c_str());
}

TEST(ForestIoTest, WrongFieldTypesFailClosed) {
  // Version as a string, not a number.
  auto parsed = JsonValue::Parse(R"({"format_version": "1", "forest": {}})");
  ASSERT_TRUE(parsed.ok());
  {
    auto bad = BundleFromJson(parsed.value());
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  }
  // Tree node fields with the wrong types must not assert.
  const char* bad_tree = R"({
    "format_version": 1,
    "forest": {"trees": [{"num_features": 2,
                          "nodes": [{"f": "zero", "y": 1}]}]}
  })";
  auto doc = JsonValue::Parse(bad_tree);
  ASSERT_TRUE(doc.ok());
  const std::string path = ::testing::TempDir() + "/treewm_badtypes.json";
  ASSERT_TRUE(WriteStringToFile(path, doc.value().Dump()).ok());
  auto loaded = LoadForest(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
  // Integers outside int range must be refused, not wrapped into a valid
  // index or label; feature_subset entries must name a real feature.
  for (const char* tree : {
           // feature 2^32 would wrap to feature 0
           R"({"num_features": 2, "nodes": [{"f": 4294967296, "t": 0.5, "l": 1,
               "r": 2, "y": 1}, {"f": -1, "y": 1}, {"f": -1, "y": -1}]})",
           // child 2^32 + 1 would wrap to node 1
           R"({"num_features": 2, "nodes": [{"f": 0, "t": 0.5, "l": 4294967297,
               "r": 2, "y": 1}, {"f": -1, "y": 1}, {"f": -1, "y": -1}]})",
           // leaf label 2^32 + 1 would wrap to +1
           R"({"num_features": 2, "nodes": [{"f": -1, "y": 4294967297}]})",
           // subset entries outside [0, 2)
           R"({"num_features": 2, "feature_subset": [7, -3],
               "nodes": [{"f": -1, "y": 1}]})",
       }) {
    auto forest_doc = JsonValue::Parse(std::string(R"({"trees": [)") + tree + "]}");
    ASSERT_TRUE(forest_doc.ok()) << tree;
    EXPECT_EQ(forest::RandomForest::FromJson(forest_doc.value()).status().code(),
              StatusCode::kParseError)
        << tree;
  }
}

TEST(DatasetJsonTest, RejectsCorruptNumbers) {
  // Labels out of int64 range (would be llround UB without the checked path).
  auto doc = JsonValue::Parse(
      R"({"num_features": 1, "rows": [[0.5]], "labels": [1e300]})");
  ASSERT_TRUE(doc.ok());
  auto parsed = DatasetFromJson(doc.value());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kParseError);
  // Labels outside int range would wrap to a valid +1 or -1.
  for (const char* labels : {"[4294967297]", "[-4294967297]"}) {
    doc = JsonValue::Parse(std::string(R"({"num_features": 1, "rows": [[0.5]], "labels": )") +
                           labels + "}");
    ASSERT_TRUE(doc.ok());
    EXPECT_EQ(DatasetFromJson(doc.value()).status().code(), StatusCode::kParseError)
        << labels;
  }
  // Negative feature count.
  doc = JsonValue::Parse(R"({"num_features": -3, "rows": [], "labels": []})");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(DatasetFromJson(doc.value()).ok());
  // Row value of the wrong type.
  doc = JsonValue::Parse(
      R"({"num_features": 1, "rows": [["x"]], "labels": [1]})");
  ASSERT_TRUE(doc.ok());
  EXPECT_FALSE(DatasetFromJson(doc.value()).ok());
}

TEST(ForestIoTest, MissingFileIsIoError) {
  auto loaded = LoadForest(::testing::TempDir() + "/treewm_does_not_exist.json");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace treewm::io
