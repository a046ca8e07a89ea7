// Tests for the black-box verification protocol.

#include "core/verification.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/watermark.h"
#include "data/sampling.h"
#include "data/synthetic.h"

namespace treewm::core {
namespace {

struct Fixture {
  WatermarkedModel wm;
  data::Dataset test;
  forest::RandomForest innocent;
};

Fixture MakeFixture(uint64_t seed) {
  auto data = data::synthetic::MakeBlobs(seed, 500, 8, 2.0);
  Rng rng(seed + 1);
  auto tt = data::MakeTrainTest(data, 0.3, &rng).MoveValue();
  auto sigma = Signature::Random(12, 0.5, &rng);
  WatermarkConfig config;
  config.seed = seed + 2;
  config.grid.max_depth_grid = {4, -1};
  config.grid.num_folds = 2;
  config.trigger_training.forest.feature_fraction = 0.7;
  Watermarker watermarker(config);
  auto wm = watermarker.CreateWatermark(tt.train, sigma).MoveValue();

  forest::ForestConfig innocent_config;
  innocent_config.num_trees = 12;
  innocent_config.tree = wm.tuned_config;
  innocent_config.seed = seed + 3;
  innocent_config.feature_fraction = 0.7;
  auto innocent = forest::RandomForest::Fit(tt.train, {}, innocent_config).MoveValue();
  return Fixture{std::move(wm), std::move(tt.test), std::move(innocent)};
}

TEST(Log10BinomialTailTest, KZeroIsCertainAndKAboveNIsImpossible) {
  EXPECT_DOUBLE_EQ(Log10BinomialTail(10, 0, 0.3), 0.0);
  // Regression: k > n used to dereference max_element of an empty terms
  // vector (UB). The impossible event must report log10 P = -inf.
  EXPECT_EQ(Log10BinomialTail(10, 11, 0.3),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(Log10BinomialTail(0, 1, 0.5),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(Log10BinomialTail(5, 100, 0.99),
            -std::numeric_limits<double>::infinity());
}

TEST(Log10BinomialTailTest, DegenerateProbabilities) {
  EXPECT_EQ(Log10BinomialTail(10, 3, 0.0),
            -std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(Log10BinomialTail(10, 3, 1.0), 0.0);
}

TEST(Log10BinomialTailTest, MatchesDirectSummation) {
  // P[X >= 2], X ~ Binomial(3, 0.5) = (3 + 1) / 8.
  EXPECT_NEAR(Log10BinomialTail(3, 2, 0.5), std::log10(4.0 / 8.0), 1e-12);
  // P[X >= n] = p^n.
  EXPECT_NEAR(Log10BinomialTail(6, 6, 0.25), 6.0 * std::log10(0.25), 1e-12);
  // Full tail P[X >= 1] = 1 - (1-p)^n.
  EXPECT_NEAR(Log10BinomialTail(4, 1, 0.2),
              std::log10(1.0 - std::pow(0.8, 4.0)), 1e-12);
  // Tail probabilities are monotone decreasing in k.
  double previous = 0.0;
  for (size_t k = 1; k <= 20; ++k) {
    const double tail = Log10BinomialTail(20, k, 0.4);
    EXPECT_LE(tail, previous) << "k=" << k;
    previous = tail;
  }
}

TEST(VerificationTest, WatermarkedModelVerifies) {
  Fixture fx = MakeFixture(100);
  VerificationRequest request{fx.wm.signature, fx.wm.trigger_set, fx.test};
  ForestBlackBox suspect(fx.wm.model);
  Rng rng(1);
  auto report = VerificationAuthority::Verify(suspect, request, &rng).MoveValue();
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.matching_instances, report.trigger_size);
  EXPECT_DOUBLE_EQ(report.bit_match_rate, 1.0);
  EXPECT_LT(report.log10_p_value, -6.0);      // overwhelming evidence
  EXPECT_LT(report.log10_bit_p_value, -20.0);  // bit-level statistic agrees
  EXPECT_TRUE(report.conclusive());
  // Control instances behave like coin flips w.r.t. the signature pattern.
  EXPECT_GT(report.control_match_rate, 0.2);
  EXPECT_LT(report.control_match_rate, 0.8);
}

TEST(VerificationTest, InnocentModelDoesNotVerify) {
  Fixture fx = MakeFixture(200);
  VerificationRequest request{fx.wm.signature, fx.wm.trigger_set, fx.test};
  ForestBlackBox innocent(fx.innocent);
  Rng rng(2);
  auto report = VerificationAuthority::Verify(innocent, request, &rng).MoveValue();
  EXPECT_FALSE(report.verified);
  EXPECT_LT(report.bit_match_rate, 0.95);
  EXPECT_GT(report.log10_p_value, -3.0);  // no real evidence
  EXPECT_FALSE(report.conclusive());
}

TEST(VerificationTest, ShuffleOrderDoesNotChangeOutcome) {
  Fixture fx = MakeFixture(300);
  VerificationRequest request{fx.wm.signature, fx.wm.trigger_set, fx.test};
  ForestBlackBox suspect(fx.wm.model);
  Rng rng_a(11);
  Rng rng_b(9999);
  auto a = VerificationAuthority::Verify(suspect, request, &rng_a).MoveValue();
  auto b = VerificationAuthority::Verify(suspect, request, &rng_b).MoveValue();
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.matching_instances, b.matching_instances);
  EXPECT_DOUBLE_EQ(a.bit_match_rate, b.bit_match_rate);
}

TEST(VerificationTest, WrongSignatureFailsVerification) {
  Fixture fx = MakeFixture(400);
  Rng rng(3);
  auto wrong = Signature::Random(fx.wm.signature.length(), 0.5, &rng);
  // Astronomically unlikely to equal the embedded signature; skip if it does.
  if (wrong == fx.wm.signature) GTEST_SKIP();
  VerificationRequest request{wrong, fx.wm.trigger_set, fx.test};
  ForestBlackBox suspect(fx.wm.model);
  auto report = VerificationAuthority::Verify(suspect, request, &rng).MoveValue();
  EXPECT_FALSE(report.verified);
}

/// The first `width` columns of `d`, with its labels.
data::Dataset FirstColumns(const data::Dataset& d, size_t width) {
  data::Dataset out(width);
  for (size_t i = 0; i < d.num_rows(); ++i) {
    EXPECT_TRUE(out.AddRow(d.Row(i).first(width), d.Label(i)).ok());
  }
  return out;
}

TEST(VerificationTest, ValidatesInputs) {
  Fixture fx = MakeFixture(500);
  ForestBlackBox suspect(fx.wm.model);
  Rng rng(4);
  // Empty trigger set.
  VerificationRequest empty{fx.wm.signature, data::Dataset(8), fx.test};
  EXPECT_FALSE(VerificationAuthority::Verify(suspect, empty, &rng).ok());
  // Signature length mismatch.
  auto short_sig = Signature::FromBitString("01").MoveValue();
  VerificationRequest mismatched{short_sig, fx.wm.trigger_set, fx.test};
  EXPECT_FALSE(VerificationAuthority::Verify(suspect, mismatched, &rng).ok());
  // Feature mismatch between trigger and test sets.
  VerificationRequest bad_features{fx.wm.signature, fx.wm.trigger_set,
                                   data::Dataset(3)};
  EXPECT_FALSE(VerificationAuthority::Verify(suspect, bad_features, &rng).ok());
  // Trigger and test sets agree with each other but are narrower than the
  // suspect: its answer is refused by shape, not computed past the rows.
  VerificationRequest narrow{fx.wm.signature, FirstColumns(fx.wm.trigger_set, 2),
                             FirstColumns(fx.test, 2)};
  auto narrow_report = VerificationAuthority::Verify(suspect, narrow, &rng);
  ASSERT_FALSE(narrow_report.ok());
  EXPECT_EQ(narrow_report.status().code(), StatusCode::kInvalidArgument);
}

TEST(VerificationTest, RejectsAVoteMatrixOfTheWrongShape) {
  // The suspect is untrusted and QueryPredictAllVotes is an override point:
  // an answer with too few rows or trees must be refused by name, never
  // scored by reading past its end.
  Fixture fx = MakeFixture(1000);

  class ShortAnswerModel : public BlackBoxModel {
   public:
    ShortAnswerModel(size_t num_trees, size_t rows, size_t trees)
        : num_trees_(num_trees), rows_(rows), trees_(trees) {}
    size_t NumTrees() const override { return num_trees_; }
    std::vector<int> QueryPredictAll(std::span<const float>) const override {
      return std::vector<int>(num_trees_, +1);
    }
    predict::VoteMatrix QueryPredictAllVotes(const data::Dataset&) const override {
      return predict::VoteMatrix(rows_, trees_);
    }

   private:
    size_t num_trees_;
    size_t rows_;
    size_t trees_;
  };

  const size_t m = fx.wm.signature.length();
  const data::Dataset decoys = fx.test.Subset({0, 1, 2, 3, 4, 5});
  VerificationRequest request{fx.wm.signature, fx.wm.trigger_set.Subset({0}), decoys};
  const std::pair<size_t, size_t> shapes[] = {{1, m}, {7, m - 1}};
  for (const auto& [rows, trees] : shapes) {
    ShortAnswerModel suspect(m, rows, trees);
    Rng rng(8);
    auto report = VerificationAuthority::Verify(suspect, request, &rng);
    ASSERT_FALSE(report.ok()) << rows << " x " << trees;
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
    const std::string& message = report.status().message();
    EXPECT_NE(message.find(StrFormat("%zu x %zu", rows, trees)), std::string::npos)
        << message;
    EXPECT_NE(message.find("7-row batch"), std::string::npos) << message;
  }
}

TEST(VerificationTest, EmptyDecoySetFallsBackToCoinFlipControlRate) {
  // With no decoys there are no control bits; the control match rate must
  // fall back to the documented 0.5 null rather than divide by zero, and a
  // genuine watermark still verifies.
  Fixture fx = MakeFixture(700);
  data::Dataset no_decoys(fx.test.num_features());
  VerificationRequest request{fx.wm.signature, fx.wm.trigger_set, no_decoys};
  ForestBlackBox suspect(fx.wm.model);
  Rng rng(6);
  auto report = VerificationAuthority::Verify(suspect, request, &rng).MoveValue();
  EXPECT_DOUBLE_EQ(report.control_match_rate, 0.5);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.matching_instances, report.trigger_size);
  EXPECT_TRUE(std::isfinite(report.log10_p_value));
  EXPECT_TRUE(std::isfinite(report.log10_bit_p_value));
}

TEST(VerificationTest, SingleInstanceTriggerVerifies) {
  Fixture fx = MakeFixture(800);
  ASSERT_GE(fx.wm.trigger_set.num_rows(), 1u);
  data::Dataset single = fx.wm.trigger_set.Subset({0});
  VerificationRequest request{fx.wm.signature, single, fx.test};
  ForestBlackBox suspect(fx.wm.model);
  Rng rng(7);
  auto report = VerificationAuthority::Verify(suspect, request, &rng).MoveValue();
  EXPECT_EQ(report.trigger_size, 1u);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.matching_instances, 1u);
  EXPECT_DOUBLE_EQ(report.bit_match_rate, 1.0);
  // One instance cannot be conclusive at the full-pattern level by itself,
  // but the statistics must stay well defined.
  EXPECT_LE(report.log10_p_value, 0.0);
  EXPECT_TRUE(std::isfinite(report.log10_p_value));
}

TEST(VerificationTest, DefaultVoteMatrixPathMatchesBatchedOverride) {
  // A black box that only implements the scalar QueryPredictAll must produce
  // the same report as the flat-engine override: the default
  // QueryPredictAllVotes loop and the batched path are interchangeable.
  Fixture fx = MakeFixture(900);

  class ScalarOnlyModel : public BlackBoxModel {
   public:
    explicit ScalarOnlyModel(const forest::RandomForest& forest)
        : forest_(forest) {}
    size_t NumTrees() const override { return forest_.num_trees(); }
    std::vector<int> QueryPredictAll(std::span<const float> x) const override {
      return forest_.PredictAll(x);
    }

   private:
    const forest::RandomForest& forest_;
  };

  VerificationRequest request{fx.wm.signature, fx.wm.trigger_set, fx.test};
  ScalarOnlyModel scalar(fx.wm.model);
  ForestBlackBox batched(fx.wm.model);
  Rng rng_a(13);
  Rng rng_b(13);  // identical shuffle
  auto a = VerificationAuthority::Verify(scalar, request, &rng_a).MoveValue();
  auto b = VerificationAuthority::Verify(batched, request, &rng_b).MoveValue();
  EXPECT_EQ(a.verified, b.verified);
  EXPECT_EQ(a.matching_instances, b.matching_instances);
  EXPECT_DOUBLE_EQ(a.bit_match_rate, b.bit_match_rate);
  EXPECT_DOUBLE_EQ(a.control_match_rate, b.control_match_rate);
  EXPECT_DOUBLE_EQ(a.log10_p_value, b.log10_p_value);
  EXPECT_DOUBLE_EQ(a.log10_bit_p_value, b.log10_bit_p_value);
}

TEST(VerificationTest, PartialTamperingLowersMatches) {
  // Simulate an attacker who (implausibly, per §3.3) identified one trigger
  // instance and flipped the model's behaviour there: verification must
  // count exactly trigger_size-1 matching instances.
  Fixture fx = MakeFixture(600);

  class TamperedModel : public BlackBoxModel {
   public:
    TamperedModel(const forest::RandomForest& forest, std::vector<float> target)
        : forest_(forest), target_(std::move(target)) {}
    size_t NumTrees() const override { return forest_.num_trees(); }
    std::vector<int> QueryPredictAll(std::span<const float> x) const override {
      auto votes = forest_.PredictAll(x);
      bool is_target = x.size() == target_.size();
      for (size_t f = 0; is_target && f < x.size(); ++f) {
        if (x[f] != target_[f]) is_target = false;
      }
      if (is_target) {
        for (int& v : votes) v = -v;  // suppress the pattern on the target
      }
      return votes;
    }

   private:
    const forest::RandomForest& forest_;
    std::vector<float> target_;
  };

  std::vector<float> target(fx.wm.trigger_set.Row(0).begin(),
                            fx.wm.trigger_set.Row(0).end());
  TamperedModel tampered(fx.wm.model, target);
  VerificationRequest request{fx.wm.signature, fx.wm.trigger_set, fx.test};
  Rng rng(5);
  auto report = VerificationAuthority::Verify(tampered, request, &rng).MoveValue();
  EXPECT_FALSE(report.verified);
  EXPECT_EQ(report.matching_instances, report.trigger_size - 1);
  // One suppressed instance cannot erase the statistical evidence.
  EXPECT_TRUE(report.conclusive());
}

}  // namespace
}  // namespace treewm::core
