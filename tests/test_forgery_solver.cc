// Unit and property tests for the forgery decision procedure.

#include "smt/forgery_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>

#include "core/signature.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "smt/cnf_encoder.h"

namespace treewm::smt {
namespace {

using tree::DecisionTree;
using tree::TreeNode;

/// The two-tree ensemble from the paper's Figure 1 (features 1-indexed in
/// the paper; 0-indexed here).
forest::RandomForest PaperFigure1Ensemble() {
  // t1 = N(x0<=5, N(x1<=3, +1, -1), N(x2<=7, -1, +1))
  auto t1 = DecisionTree::FromNodes(
                {TreeNode{0, 5.0f, 1, 2, 0}, TreeNode{1, 3.0f, 3, 4, 0},
                 TreeNode{2, 7.0f, 5, 6, 0}, TreeNode{-1, 0, -1, -1, +1},
                 TreeNode{-1, 0, -1, -1, -1}, TreeNode{-1, 0, -1, -1, -1},
                 TreeNode{-1, 0, -1, -1, +1}},
                3)
                .MoveValue();
  // t2 = N(x0<=2, N(x1<=4, +1, -1), N(x2<=6, -1, +1))
  auto t2 = DecisionTree::FromNodes(
                {TreeNode{0, 2.0f, 1, 2, 0}, TreeNode{1, 4.0f, 3, 4, 0},
                 TreeNode{2, 6.0f, 5, 6, 0}, TreeNode{-1, 0, -1, -1, +1},
                 TreeNode{-1, 0, -1, -1, -1}, TreeNode{-1, 0, -1, -1, -1},
                 TreeNode{-1, 0, -1, -1, +1}},
                3)
                .MoveValue();
  return forest::RandomForest::FromTrees({t1, t2}).MoveValue();
}

TEST(ForgerySolverTest, SolvesPaperExample) {
  // σ' = 01, label +1: t1 must output +1, t2 must output -1. The paper's
  // example solution is x = (4, 3, 5).
  auto ensemble = PaperFigure1Ensemble();
  ForgeryQuery query;
  query.signature_bits = {0, 1};
  query.target_label = +1;
  query.domain_lo = 0.0;
  query.domain_hi = 10.0;
  auto outcome = ForgerySolver::Solve(ensemble, query).MoveValue();
  ASSERT_EQ(outcome.result, sat::SatResult::kSat);
  EXPECT_TRUE(outcome.validated);
  EXPECT_TRUE(ForgerySolver::PatternHolds(ensemble, query.signature_bits, +1,
                                          outcome.witness));
  // The paper's hand solution must also satisfy the pattern.
  std::vector<float> paper_solution{4.0f, 3.0f, 5.0f};
  EXPECT_TRUE(ForgerySolver::PatternHolds(ensemble, query.signature_bits, +1,
                                          paper_solution));
}

TEST(ForgerySolverTest, DetectsUnsatDisjointRegions) {
  // Stump A: +1 iff x0 <= 0.3. Stump B: +1 iff x0 > 0.7. Both must be +1:
  // impossible.
  auto a = DecisionTree::FromNodes({TreeNode{0, 0.3f, 1, 2, 0},
                                    TreeNode{-1, 0, -1, -1, +1},
                                    TreeNode{-1, 0, -1, -1, -1}},
                                   1)
               .MoveValue();
  auto b = DecisionTree::FromNodes({TreeNode{0, 0.7f, 1, 2, 0},
                                    TreeNode{-1, 0, -1, -1, -1},
                                    TreeNode{-1, 0, -1, -1, +1}},
                                   1)
               .MoveValue();
  auto ensemble = forest::RandomForest::FromTrees({a, b}).MoveValue();
  ForgeryQuery query;
  query.signature_bits = {0, 0};
  query.target_label = +1;
  auto outcome = ForgerySolver::Solve(ensemble, query).MoveValue();
  EXPECT_EQ(outcome.result, sat::SatResult::kUnsat);
  // Flipping B's bit makes it feasible again.
  query.signature_bits = {0, 1};
  outcome = ForgerySolver::Solve(ensemble, query).MoveValue();
  EXPECT_EQ(outcome.result, sat::SatResult::kSat);
}

TEST(ForgerySolverTest, BallConstraintBinds) {
  auto ensemble = PaperFigure1Ensemble();
  ForgeryQuery query;
  query.signature_bits = {0, 1};
  query.target_label = +1;
  query.domain_lo = 0.0;
  query.domain_hi = 10.0;
  // Anchor at (9,9,9): σ'=01 needs x0>5, x2>7 for t1=+1 … and t2=-1 needs
  // x0>2, x2<=6 — conflicting with x2>7, so t1 must go left: x0<=5. A tight
  // ball around (9,9,9) therefore kills the query.
  query.anchor = {9.0f, 9.0f, 9.0f};
  query.epsilon = 0.5;
  auto tight = ForgerySolver::Solve(ensemble, query).MoveValue();
  EXPECT_EQ(tight.result, sat::SatResult::kUnsat);
  // A huge ball admits the paper solution again.
  query.epsilon = 8.0;
  auto loose = ForgerySolver::Solve(ensemble, query).MoveValue();
  EXPECT_EQ(loose.result, sat::SatResult::kSat);
  // Witness stays within the ball.
  for (size_t f = 0; f < 3; ++f) {
    EXPECT_LE(std::fabs(loose.witness[f] - 9.0), 8.0 + 1e-6);
  }
}

TEST(ForgerySolverTest, EmptyBallDomainIntersectionIsUnsat) {
  auto ensemble = PaperFigure1Ensemble();
  ForgeryQuery query;
  query.signature_bits = {0, 1};
  query.target_label = +1;
  query.domain_lo = 0.0;
  query.domain_hi = 1.0;
  query.anchor = {5.0f, 5.0f, 5.0f};  // ball [4.9,5.1] misses domain [0,1]
  query.epsilon = 0.1;
  auto outcome = ForgerySolver::Solve(ensemble, query).MoveValue();
  EXPECT_EQ(outcome.result, sat::SatResult::kUnsat);
}

TEST(ForgerySolverTest, NodeBudgetReturnsUnknown) {
  auto data = data::synthetic::MakeBlobs(5, 300, 6, 0.5);
  forest::ForestConfig config;
  config.num_trees = 12;
  config.seed = 9;
  auto model = forest::RandomForest::Fit(data, {}, config).MoveValue();
  Rng rng(4);
  auto sigma = core::Signature::Random(12, 0.5, &rng);
  ForgeryQuery query;
  query.signature_bits = sigma.bits();
  query.target_label = +1;
  query.max_nodes = 1;  // absurdly small
  auto outcome = ForgerySolver::Solve(model, query).MoveValue();
  EXPECT_NE(outcome.result, sat::SatResult::kSat);
}

TEST(ForgerySolverTest, ValidatesQueryShape) {
  auto ensemble = PaperFigure1Ensemble();
  ForgeryQuery query;
  query.signature_bits = {0, 1};
  query.target_label = +1;
  query.anchor = {0.5f};  // wrong dimensionality
  EXPECT_FALSE(ForgerySolver::Solve(ensemble, query).ok());
  EXPECT_FALSE(CnfForgeryBackend::Solve(ensemble, query).ok());
  query.anchor.clear();
  query.epsilon = -0.1;
  EXPECT_FALSE(ForgerySolver::Solve(ensemble, query).ok());
  EXPECT_FALSE(CnfForgeryBackend::Solve(ensemble, query).ok());

  // A bad ball is InvalidArgument on both backends, never an OK verdict: a
  // NaN ε must not read as "no ball", and a negative ε or an inverted domain
  // must not read as UNSAT.
  ForgeryQuery valid = query;
  valid.anchor = {1.0f, 2.0f, 3.0f};
  valid.epsilon = 0.5;
  ASSERT_TRUE(ForgerySolver::Solve(ensemble, valid).ok());
  ASSERT_TRUE(CnfForgeryBackend::Solve(ensemble, valid).ok());
  ForgeryQuery nan_epsilon = valid;
  nan_epsilon.epsilon = std::numeric_limits<double>::quiet_NaN();
  ForgeryQuery negative_epsilon = valid;
  negative_epsilon.epsilon = -0.1;
  ForgeryQuery inverted_domain = valid;
  inverted_domain.domain_lo = 10.0;
  inverted_domain.domain_hi = 0.0;
  for (const ForgeryQuery& bad : {nan_epsilon, negative_epsilon, inverted_domain}) {
    auto box = ForgerySolver::Solve(ensemble, bad);
    ASSERT_FALSE(box.ok());
    EXPECT_EQ(box.status().code(), StatusCode::kInvalidArgument);
    auto cnf = CnfForgeryBackend::Solve(ensemble, bad);
    ASSERT_FALSE(cnf.ok()) << "epsilon " << bad.epsilon << " domain [" << bad.domain_lo
                           << ", " << bad.domain_hi << "]";
    EXPECT_EQ(cnf.status().code(), StatusCode::kInvalidArgument);
  }
}

/// One query's outcome on each solve path: scalar Solve, SolveBatch over a
/// one-anchor set, and the CNF backend. Every path must return a typed
/// outcome, never an error.
struct PathOutcomes {
  ForgeryOutcome scalar;
  ForgeryOutcome batch;
  ForgeryOutcome cnf;
};

PathOutcomes SolveOnEveryPath(const forest::RandomForest& forest,
                              const ForgeryQuery& query) {
  PathOutcomes out;
  auto scalar = ForgerySolver::Solve(forest, query);
  EXPECT_TRUE(scalar.ok()) << "scalar: " << scalar.status().ToString();
  if (scalar.ok()) out.scalar = scalar.MoveValue();

  ForgeryBatchQuery shared;
  shared.signature_bits = query.signature_bits;
  shared.epsilon = query.epsilon;
  shared.domain_lo = query.domain_lo;
  shared.domain_hi = query.domain_hi;
  shared.max_nodes_per_anchor = query.max_nodes;
  shared.pool = nullptr;
  data::Dataset anchors(forest.num_features());
  EXPECT_TRUE(anchors.AddRow(query.anchor, query.target_label).ok());
  auto batch = ForgerySolver::SolveBatch(forest, shared, anchors);
  EXPECT_TRUE(batch.ok()) << "batch: " << batch.status().ToString();
  if (batch.ok()) out.batch = batch.value()[0];

  auto cnf = CnfForgeryBackend::Solve(forest, query);
  EXPECT_TRUE(cnf.ok()) << "cnf: " << cnf.status().ToString();
  if (cnf.ok()) out.cnf = cnf.MoveValue();
  return out;
}

/// A SAT outcome must carry a float witness that forges the pattern inside
/// the ball and the domain.
void ExpectValidWitness(const forest::RandomForest& forest, const ForgeryQuery& query,
                        const ForgeryOutcome& outcome, const char* path) {
  if (outcome.result != sat::SatResult::kSat) return;
  EXPECT_TRUE(outcome.validated) << path;
  EXPECT_TRUE(ForgerySolver::PatternHolds(forest, query.signature_bits,
                                          query.target_label, outcome.witness))
      << path;
  ASSERT_EQ(outcome.witness.size(), query.anchor.size()) << path;
  for (size_t f = 0; f < query.anchor.size(); ++f) {
    const double x = outcome.witness[f];
    EXPECT_GE(x, query.domain_lo) << path << " feature " << f;
    EXPECT_LE(x, query.domain_hi) << path << " feature " << f;
    EXPECT_LE(std::fabs(x - query.anchor[f]), query.epsilon) << path << " feature " << f;
  }
}

void ExpectValidOnEveryPath(const forest::RandomForest& forest, const ForgeryQuery& query,
                            const PathOutcomes& o) {
  ExpectValidWitness(forest, query, o.scalar, "scalar");
  ExpectValidWitness(forest, query, o.batch, "batch");
  ExpectValidWitness(forest, query, o.cnf, "cnf");
}

/// x0 <= 0.5 ? (x1 <= 0.5 ? -1 : +1) : +1. Among the +1 leaves the solvers
/// meet the x0 > 0.5 one first.
forest::RandomForest FloatGapStump() {
  auto t = DecisionTree::FromNodes(
               {TreeNode{0, 0.5f, 1, 2, 0}, TreeNode{1, 0.5f, 3, 4, 0},
                TreeNode{-1, 0, -1, -1, +1}, TreeNode{-1, 0, -1, -1, -1},
                TreeNode{-1, 0, -1, -1, +1}},
               2)
               .MoveValue();
  return forest::RandomForest::FromTrees({t}).MoveValue();
}

// The ball's upper end 0.25 + ε lands strictly between the threshold 0.5f
// and the next float, so the double interval (0.5, 0.25 + ε] holds no
// float32 point. Every path must treat the x0 > 0.5 leaf as unreachable
// rather than return a witness that rounds back onto the threshold.
TEST(ForgerySolverTest, BallEndBetweenThresholdAndNextFloatOnEveryPath) {
  const auto stump = FloatGapStump();
  const double ulp = static_cast<double>(std::nextafter(0.5f, 1.0f)) - 0.5;
  ForgeryQuery query;
  query.signature_bits = {0};
  query.target_label = +1;  // the tree must vote +1
  query.epsilon = 0.25 + ulp / 2;
  ASSERT_GT(0.25 + query.epsilon, 0.5);
  ASSERT_LT(0.25 + query.epsilon, 0.5 + ulp);

  // x1 is held below its threshold too: no float forgery exists.
  query.anchor = {0.25f, 0.25f};
  const PathOutcomes none = SolveOnEveryPath(stump, query);
  EXPECT_EQ(none.scalar.result, sat::SatResult::kUnsat);
  EXPECT_EQ(none.batch.result, sat::SatResult::kUnsat);
  EXPECT_EQ(none.cnf.result, sat::SatResult::kUnsat);

  // x1 can pass its threshold: the other +1 leaf is a real forgery.
  query.anchor = {0.25f, 0.75f};
  const PathOutcomes some = SolveOnEveryPath(stump, query);
  for (const ForgeryOutcome* o : {&some.scalar, &some.batch, &some.cnf}) {
    ASSERT_EQ(o->result, sat::SatResult::kSat);
    EXPECT_LE(o->witness[0], 0.5f);
    EXPECT_GT(o->witness[1], 0.5f);
  }
  ExpectValidOnEveryPath(stump, query, some);
}

// Property: for anchors one float step around every threshold of a trained
// model, ball radii whose ends fall between floats, and finite or infinite
// domains, every path returns a typed outcome, the paths agree, and every
// SAT witness validates. The signature asks for the votes at the threshold
// or one float above it, so many queries need a point the ball only just
// reaches or just misses.
TEST(ForgerySolverTest, EverySatWitnessValidatesNearThresholds) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr float kFloatInf = std::numeric_limits<float>::infinity();
  const auto data = data::synthetic::MakeBlobs(31, 200, 3, 1.0);
  forest::ForestConfig config;
  config.num_trees = 5;
  config.seed = 32;
  config.tree.max_depth = 3;
  const auto model = forest::RandomForest::Fit(data, {}, config).MoveValue();
  const std::vector<float> base(data.Row(0).begin(), data.Row(0).end());
  size_t sat = 0;
  size_t unsat = 0;
  for (const auto& tree : model.trees()) {
    for (const TreeNode& node : tree.nodes()) {
      if (node.feature < 0) continue;
      const auto f = static_cast<size_t>(node.feature);
      const float v = node.threshold;
      const float above = std::nextafter(v, kFloatInf);
      const double ulp = static_cast<double>(above) - v;
      for (float pattern_x : {v, above}) {
        std::vector<float> point = base;
        point[f] = pattern_x;
        ForgeryQuery query;
        query.target_label = +1;
        for (int vote : model.PredictAll(point)) {
          query.signature_bits.push_back(vote == +1 ? 0 : 1);
        }
        for (float anchor_x : {std::nextafter(v, -kFloatInf), v, above}) {
          query.anchor = base;
          query.anchor[f] = anchor_x;
          for (double epsilon : {ulp / 2, 1.5 * ulp}) {
            query.epsilon = epsilon;
            for (const auto& [lo, hi] : {std::pair{-kInf, kInf}, std::pair{-10.0, 10.0}}) {
              query.domain_lo = lo;
              query.domain_hi = hi;
              SCOPED_TRACE(testing::Message() << "v=" << v << " feature " << f
                                              << " anchor " << anchor_x << " eps "
                                              << epsilon << " domain " << lo);
              const PathOutcomes o = SolveOnEveryPath(model, query);
              EXPECT_EQ(o.batch.result, o.scalar.result);
              EXPECT_EQ(o.batch.witness, o.scalar.witness);
              EXPECT_EQ(o.cnf.result, o.scalar.result);
              ExpectValidOnEveryPath(model, query, o);
              (o.scalar.result == sat::SatResult::kSat ? sat : unsat) += 1;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(sat, 0u);
  EXPECT_GT(unsat, 0u);
}

TEST(PatternHoldsTest, ChecksEveryTree) {
  auto ensemble = PaperFigure1Ensemble();
  std::vector<float> x{4.0f, 3.0f, 5.0f};  // t1=+1, t2=-1
  EXPECT_TRUE(ForgerySolver::PatternHolds(ensemble, {0, 1}, +1, x));
  EXPECT_FALSE(ForgerySolver::PatternHolds(ensemble, {0, 0}, +1, x));
  EXPECT_FALSE(ForgerySolver::PatternHolds(ensemble, {1, 1}, +1, x));
  EXPECT_TRUE(ForgerySolver::PatternHolds(ensemble, {1, 0}, -1, x));  // mirrored
  EXPECT_FALSE(ForgerySolver::PatternHolds(ensemble, {1}, +1, x));  // bad length
  EXPECT_FALSE(
      ForgerySolver::PatternHolds(ensemble, {0, 1}, +1, {x.data(), 2}));  // bad d
}

TEST(PatternHoldsBatchTest, ValidatesRowBlocksLikeTheScalarCheck) {
  auto ensemble = PaperFigure1Ensemble();
  data::Dataset witnesses(3);
  ASSERT_TRUE(witnesses.AddRow(std::vector<float>{4.0f, 3.0f, 5.0f}, +1).ok());
  ASSERT_TRUE(witnesses.AddRow(std::vector<float>{9.0f, 9.0f, 9.0f}, +1).ok());
  ASSERT_TRUE(witnesses.AddRow(std::vector<float>{1.0f, 1.0f, 1.0f}, +1).ok());
  const std::vector<uint8_t> holds =
      ForgerySolver::PatternHoldsBatch(ensemble, {0, 1}, +1, witnesses);
  ASSERT_EQ(holds.size(), witnesses.num_rows());
  for (size_t i = 0; i < witnesses.num_rows(); ++i) {
    EXPECT_EQ(holds[i] != 0,
              ForgerySolver::PatternHolds(ensemble, {0, 1}, +1, witnesses.Row(i)))
        << "row " << i;
  }
  EXPECT_EQ(holds[0], 1);  // the paper's hand solution

  // Shape mismatches fail every row instead of reading out of bounds.
  const auto bad_sig =
      ForgerySolver::PatternHoldsBatch(ensemble, {0}, +1, witnesses);
  EXPECT_EQ(bad_sig, std::vector<uint8_t>(witnesses.num_rows(), 0));
  data::Dataset bad_features(2);
  ASSERT_TRUE(bad_features.AddRow(std::vector<float>{4.0f, 3.0f}, +1).ok());
  const auto bad_d =
      ForgerySolver::PatternHoldsBatch(ensemble, {0, 1}, +1, bad_features);
  EXPECT_EQ(bad_d, std::vector<uint8_t>{0});

  data::Dataset empty(3);
  EXPECT_TRUE(
      ForgerySolver::PatternHoldsBatch(ensemble, {0, 1}, +1, empty).empty());
}

TEST(PatternHoldsBatchTest, AgreesWithScalarOnTrainedModelSweep) {
  auto data = data::synthetic::MakeBlobs(23, 200, 5, 1.0);
  forest::ForestConfig config;
  config.num_trees = 9;
  config.seed = 6;
  auto model = forest::RandomForest::Fit(data, {}, config).MoveValue();
  Rng rng(7);
  for (int trial = 0; trial < 4; ++trial) {
    auto fake = core::Signature::Random(9, 0.5, &rng);
    const int label = trial % 2 == 0 ? +1 : -1;
    const std::vector<uint8_t> holds =
        ForgerySolver::PatternHoldsBatch(model, fake.bits(), label, data);
    ASSERT_EQ(holds.size(), data.num_rows());
    for (size_t i = 0; i < data.num_rows(); ++i) {
      ASSERT_EQ(holds[i] != 0, ForgerySolver::PatternHolds(model, fake.bits(),
                                                           label, data.Row(i)))
          << "trial " << trial << " row " << i;
    }
  }
}

/// Property sweep on trained models: whenever the solver reports SAT the
/// witness must satisfy the pattern and the ball constraint; the outcome is
/// deterministic across repeat runs.
class ForgerySweep : public ::testing::TestWithParam<double> {};

TEST_P(ForgerySweep, WitnessesAreSoundAndDeterministic) {
  const double epsilon = GetParam();
  auto data = data::synthetic::MakeBlobs(17, 400, 5, 1.5);
  forest::ForestConfig config;
  config.num_trees = 10;
  config.seed = 2;
  auto model = forest::RandomForest::Fit(data, {}, config).MoveValue();
  Rng rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    auto fake = core::Signature::Random(10, 0.5, &rng);
    ForgeryQuery query;
    query.signature_bits = fake.bits();
    query.target_label = trial % 2 == 0 ? +1 : -1;
    const size_t row = rng.UniformInt(data.num_rows());
    query.anchor.assign(data.Row(row).begin(), data.Row(row).end());
    query.epsilon = epsilon;
    query.max_nodes = 100000;

    auto first = ForgerySolver::Solve(model, query).MoveValue();
    auto second = ForgerySolver::Solve(model, query).MoveValue();
    EXPECT_EQ(first.result, second.result);
    EXPECT_EQ(first.nodes_explored, second.nodes_explored);
    if (first.result == sat::SatResult::kSat) {
      EXPECT_TRUE(ForgerySolver::PatternHolds(model, query.signature_bits,
                                              query.target_label, first.witness));
      for (size_t f = 0; f < first.witness.size(); ++f) {
        EXPECT_LE(std::fabs(first.witness[f] - query.anchor[f]), epsilon + 1e-6);
        EXPECT_GE(first.witness[f], 0.0f);
        EXPECT_LE(first.witness[f], 1.0f);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, ForgerySweep,
                         ::testing::Values(0.05, 0.1, 0.3, 0.5, 0.9));

}  // namespace
}  // namespace treewm::smt
