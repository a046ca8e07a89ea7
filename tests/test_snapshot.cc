// Tests for the binary ensemble snapshot: bit-exact round-trips for both
// leaf payload kinds, the fail-closed fuzz contract (every prefix
// truncation and every single-byte flip is a typed ParseError), crafted
// valid-CRC malformations, FromParts arena validation, the
// snapshot.corrupt fault site, and a golden EnsembleChecksum.

#include "io/ensemble_snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "common/crc32.h"
#include "common/fault_injection.h"
#include "common/json.h"
#include "boosting/gbdt.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "predict/batch_predictor.h"
#include "predict/flat_ensemble.h"

namespace treewm::io {
namespace {

using predict::BatchPredictor;
using predict::FlatEnsemble;
using predict::FlatNode;

data::Dataset SmallBlobs(uint64_t seed = 3, size_t rows = 120,
                         size_t features = 5) {
  return data::synthetic::MakeBlobs(seed, rows, features, 1.5);
}

FlatEnsemble SmallForestFlat(size_t num_trees = 5) {
  auto d = SmallBlobs();
  forest::ForestConfig config;
  config.num_trees = num_trees;
  config.seed = 11;
  auto forest = forest::RandomForest::Fit(d, {}, config).MoveValue();
  return FlatEnsemble::FromClassificationTrees(forest.trees());
}

FlatEnsemble SmallGbdtFlat() {
  auto d = SmallBlobs(7);
  boosting::GbdtConfig config;
  config.num_trees = 6;
  auto gbdt = boosting::Gbdt::Fit(d, config).MoveValue();
  return FlatEnsemble::FromRegressionTrees(gbdt.trees(), gbdt.initial_score(),
                                           gbdt.learning_rate());
}

/// Recomputes the header CRC after a test mutated the image, so the
/// post-CRC validation paths (which assume intact bytes) are reachable.
std::vector<uint8_t> WithFixedCrc(std::vector<uint8_t> bytes) {
  uint32_t crc = Crc32Init();
  crc = Crc32Update(crc, std::span<const uint8_t>(bytes).subspan(4, 8));
  crc = Crc32Update(crc, std::span<const uint8_t>(bytes).subspan(16));
  crc = Crc32Finish(crc);
  for (int i = 0; i < 4; ++i) {
    bytes[12 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return bytes;
}

void ExpectParseError(const Result<FlatEnsemble>& result, const char* what) {
  ASSERT_FALSE(result.ok()) << what;
  EXPECT_EQ(result.status().code(), StatusCode::kParseError) << what;
}

// ---------------------------------------------------------------------------
// Round trips

TEST(SnapshotTest, ClassificationRoundTripIsBitExact) {
  const FlatEnsemble original = SmallForestFlat();
  const std::vector<uint8_t> encoded = EncodeEnsembleSnapshot(original);
  auto decoded = DecodeEnsembleSnapshot(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  // Deterministic encoding makes re-encoding the decoded ensemble a
  // bit-exact equality check over the whole arena.
  EXPECT_EQ(EncodeEnsembleSnapshot(decoded.value()), encoded);
  EXPECT_EQ(decoded.value().num_trees(), original.num_trees());
  EXPECT_EQ(decoded.value().num_features(), original.num_features());
  EXPECT_FALSE(decoded.value().is_regression());

  const auto probe = SmallBlobs(99);
  BatchPredictor a(original);
  BatchPredictor b(std::move(decoded).MoveValue());
  EXPECT_EQ(a.PredictAllVotes(probe), b.PredictAllVotes(probe));
}

TEST(SnapshotTest, GbdtRoundTripIsBitExact) {
  const FlatEnsemble original = SmallGbdtFlat();
  const std::vector<uint8_t> encoded = EncodeEnsembleSnapshot(original);
  auto decoded = DecodeEnsembleSnapshot(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(EncodeEnsembleSnapshot(decoded.value()), encoded);
  EXPECT_TRUE(decoded.value().is_regression());
  EXPECT_EQ(decoded.value().initial_score(), original.initial_score());
  EXPECT_EQ(decoded.value().learning_rate(), original.learning_rate());

  const auto probe = SmallBlobs(98);
  BatchPredictor a(original);
  BatchPredictor b(std::move(decoded).MoveValue());
  EXPECT_EQ(a.Scores(probe), b.Scores(probe));  // bit-exact doubles
}

TEST(SnapshotTest, FileRoundTripAndChecksumIdentity) {
  const FlatEnsemble original = SmallForestFlat();
  const std::string path = ::testing::TempDir() + "/treewm_snapshot_rt.twsn";
  ASSERT_TRUE(SaveEnsembleSnapshot(original, path).ok());
  auto loaded = LoadEnsembleSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::vector<uint8_t> encoded = EncodeEnsembleSnapshot(original);
  EXPECT_EQ(EncodeEnsembleSnapshot(loaded.value()), encoded);

  // EnsembleChecksum is exactly the CRC the snapshot carries at [12, 16).
  uint32_t header_crc = 0;
  for (int i = 3; i >= 0; --i) header_crc = (header_crc << 8) | encoded[12 + i];
  EXPECT_EQ(EnsembleChecksum(original), header_crc);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsIoErrorNotParseError) {
  auto missing =
      LoadEnsembleSnapshot(::testing::TempDir() + "/treewm_no_such.twsn");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Fail-closed fuzz (mirrors the wire framing contract)

TEST(SnapshotTest, EveryPrefixTruncationFailsClosed) {
  const std::vector<uint8_t> full = EncodeEnsembleSnapshot(SmallForestFlat(2));
  for (size_t len = 0; len < full.size(); ++len) {
    auto result = DecodeEnsembleSnapshot(
        std::span<const uint8_t>(full.data(), len));
    ASSERT_FALSE(result.ok()) << "prefix of " << len << " bytes decoded";
    ASSERT_EQ(result.status().code(), StatusCode::kParseError) << len;
  }
}

TEST(SnapshotTest, EverySingleByteFlipFailsClosed) {
  const std::vector<uint8_t> full = EncodeEnsembleSnapshot(SmallForestFlat(2));
  // Every byte matters: the magic by comparison, the version by its range
  // check, the CRC field and everything it covers by the checksum.
  for (size_t i = 0; i < full.size(); ++i) {
    std::vector<uint8_t> corrupt = full;
    corrupt[i] ^= 0x20;
    auto result = DecodeEnsembleSnapshot(corrupt);
    ASSERT_FALSE(result.ok()) << "flip at byte " << i << " decoded";
    ASSERT_EQ(result.status().code(), StatusCode::kParseError) << i;
  }
}

TEST(SnapshotTest, CraftedValidCrcMalformationsFailClosed) {
  const std::vector<uint8_t> good = EncodeEnsembleSnapshot(SmallForestFlat(2));
  // A hostile writer can make the CRC match anything; the structural
  // validation behind it must still refuse.

  {  // Unsupported format version.
    std::vector<uint8_t> bad = good;
    bad[4] = 9;
    ExpectParseError(DecodeEnsembleSnapshot(WithFixedCrc(bad)), "version 9");
  }
  {  // Section count that walks off the end.
    std::vector<uint8_t> bad = good;
    bad[8] = 200;
    ExpectParseError(DecodeEnsembleSnapshot(WithFixedCrc(bad)),
                     "oversized section count");
  }
  {  // Fewer sections than present: the leftovers become trailing bytes.
    std::vector<uint8_t> bad = good;
    bad[8] = 3;
    ExpectParseError(DecodeEnsembleSnapshot(WithFixedCrc(bad)),
                     "trailing bytes");
  }
  {  // First section's id rewritten to an unknown value.
    std::vector<uint8_t> bad = good;
    bad[16] = 6;
    ExpectParseError(DecodeEnsembleSnapshot(WithFixedCrc(bad)), "unknown id");
  }
  {  // First section's id rewritten to duplicate the roots section.
    std::vector<uint8_t> bad = good;
    bad[16] = 2;
    // Meta bytes masquerading as roots: either the duplicate-section check
    // or a size check fires — any ParseError is a pass.
    ExpectParseError(DecodeEnsembleSnapshot(WithFixedCrc(bad)), "duplicate");
  }
  {  // Meta's num_features zeroed: FromParts must reject the intact arena.
    std::vector<uint8_t> bad = good;
    for (int i = 0; i < 8; ++i) bad[16 + 12 + i] = 0;  // meta payload u64 #1
    ExpectParseError(DecodeEnsembleSnapshot(WithFixedCrc(bad)),
                     "zero features");
  }
  {  // Section length grown past the file.
    std::vector<uint8_t> bad = good;
    bad[16 + 4 + 3] = 0x7F;  // high byte of the meta section's u64 length
    ExpectParseError(DecodeEnsembleSnapshot(WithFixedCrc(bad)),
                     "oversized section length");
  }
}

TEST(SnapshotTest, CorruptFaultSiteFailsLoadClosed) {
  const std::string path = ::testing::TempDir() + "/treewm_snapshot_fault.twsn";
  ASSERT_TRUE(SaveEnsembleSnapshot(SmallForestFlat(2), path).ok());
  {
    ScopedFault fault("serve.registry.snapshot.corrupt", {});
    auto result = LoadEnsembleSnapshot(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  }
  // Disarmed, the very same file loads — the corruption was injected, not
  // on disk.
  EXPECT_TRUE(LoadEnsembleSnapshot(path).ok());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// FromParts arena validation

struct Parts {
  std::vector<FlatNode> nodes;
  std::vector<int64_t> roots;
  std::vector<int8_t> leaf_labels;
  std::vector<double> leaf_values;
  size_t num_features = 2;
  bool is_regression = false;
  double initial_score = 0.0;
  double learning_rate = 0.0;
};

/// One tree: root splits feature 0, children are leaves 0 and 1.
Parts ValidParts() {
  Parts p;
  FlatNode n;
  n.ft = 0;  // feature 0, threshold key 0
  n.child[0] = ~int64_t{0};
  n.child[1] = ~int64_t{1};
  n.pad = 0;
  p.nodes.push_back(n);
  p.roots.push_back(0);
  p.leaf_labels = {1, -1};
  return p;
}

Result<FlatEnsemble> Build(const Parts& p) {
  return FlatEnsemble::FromParts(p.nodes, p.roots, p.leaf_labels,
                                 p.leaf_values, p.num_features,
                                 p.is_regression, p.initial_score,
                                 p.learning_rate);
}

TEST(FromPartsTest, AcceptsAValidArena) {
  auto built = Build(ValidParts());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built.value().num_trees(), 1u);
  EXPECT_EQ(built.value().num_leaves(), 2u);
}

TEST(FromPartsTest, RejectsStructurallyBadArenas) {
  {  // Root offset beyond the arena.
    Parts p = ValidParts();
    p.roots[0] = 32;
    EXPECT_FALSE(Build(p).ok());
  }
  {  // Root offset not 32-aligned.
    Parts p = ValidParts();
    p.roots[0] = 8;
    EXPECT_FALSE(Build(p).ok());
  }
  {  // Leaf reference out of payload range.
    Parts p = ValidParts();
    p.nodes[0].child[1] = ~int64_t{7};
    EXPECT_FALSE(Build(p).ok());
  }
  {  // Self/backward internal edge: traversal would never terminate.
    Parts p = ValidParts();
    p.nodes[0].child[0] = 0;
    EXPECT_FALSE(Build(p).ok());
  }
  {  // Split feature out of range.
    Parts p = ValidParts();
    p.nodes[0].ft = 5;  // feature 5 of 2
    EXPECT_FALSE(Build(p).ok());
  }
  {  // Classification label must be exactly +1/-1.
    Parts p = ValidParts();
    p.leaf_labels[0] = 0;
    EXPECT_FALSE(Build(p).ok());
  }
  {  // Wrong leaf payload kind for the declared mode.
    Parts p = ValidParts();
    p.is_regression = true;
    EXPECT_FALSE(Build(p).ok());
  }
  {  // Classification must not smuggle additive-model constants.
    Parts p = ValidParts();
    p.learning_rate = 0.1;
    EXPECT_FALSE(Build(p).ok());
  }
  {  // No trees at all.
    Parts p = ValidParts();
    p.roots.clear();
    EXPECT_FALSE(Build(p).ok());
  }
}

// ---------------------------------------------------------------------------
// Golden checksum

/// Three hand-built stumps: tree t splits feature t at 0.5, -1.25 and 3.0
/// respectively into leaves 2t and 2t + 1.
Parts StumpForestParts() {
  Parts p;
  const float thresholds[] = {0.5f, -1.25f, 3.0f};
  for (int64_t t = 0; t < 3; ++t) {
    FlatNode n;
    n.ft = static_cast<uint64_t>(t) |
           (uint64_t{predict::FloatKey(thresholds[t])} << 32);
    n.child[0] = ~(2 * t);
    n.child[1] = ~(2 * t + 1);
    p.nodes.push_back(n);
    p.roots.push_back(t * static_cast<int64_t>(sizeof(FlatNode)));
  }
  p.leaf_labels = {1, -1, -1, 1, 1, -1};
  p.num_features = 3;
  return p;
}

TEST(SnapshotTest, GoldenEnsembleChecksum) {
  // Captured from the byte-at-a-time CRC, before it went slicing-by-8. The
  // registry reports this value per model and a snapshot stores it, so a
  // CRC change that is only self-consistent must still fail here.
  auto stumps = Build(StumpForestParts());
  ASSERT_TRUE(stumps.ok()) << stumps.status().ToString();
  EXPECT_EQ(EnsembleChecksum(stumps.value()), 0x9C210450u);
}

}  // namespace
}  // namespace treewm::io
