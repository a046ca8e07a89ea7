// Tests for the eager CNF backend, including cross-checks against the
// dedicated box solver (two complete procedures must agree).

#include "smt/cnf_encoder.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <span>

#include "common/crc32.h"
#include "core/signature.h"
#include "data/synthetic.h"

namespace treewm::smt {
namespace {

using tree::DecisionTree;
using tree::TreeNode;

forest::RandomForest SmallTrainedModel(uint64_t seed, size_t num_trees) {
  auto data = data::synthetic::MakeBlobs(seed, 300, 5, 1.2);
  forest::ForestConfig config;
  config.num_trees = num_trees;
  config.seed = seed + 1;
  return forest::RandomForest::Fit(data, {}, config).MoveValue();
}

TEST(CnfForgeryBackendTest, SolvesPaperExample) {
  auto t1 = DecisionTree::FromNodes(
                {TreeNode{0, 5.0f, 1, 2, 0}, TreeNode{1, 3.0f, 3, 4, 0},
                 TreeNode{2, 7.0f, 5, 6, 0}, TreeNode{-1, 0, -1, -1, +1},
                 TreeNode{-1, 0, -1, -1, -1}, TreeNode{-1, 0, -1, -1, -1},
                 TreeNode{-1, 0, -1, -1, +1}},
                3)
                .MoveValue();
  auto t2 = DecisionTree::FromNodes(
                {TreeNode{0, 2.0f, 1, 2, 0}, TreeNode{1, 4.0f, 3, 4, 0},
                 TreeNode{2, 6.0f, 5, 6, 0}, TreeNode{-1, 0, -1, -1, +1},
                 TreeNode{-1, 0, -1, -1, -1}, TreeNode{-1, 0, -1, -1, -1},
                 TreeNode{-1, 0, -1, -1, +1}},
                3)
                .MoveValue();
  auto ensemble = forest::RandomForest::FromTrees({t1, t2}).MoveValue();
  ForgeryQuery query;
  query.signature_bits = {0, 1};
  query.target_label = +1;
  query.domain_lo = 0.0;
  query.domain_hi = 10.0;
  CnfEncodingStats stats;
  auto outcome = CnfForgeryBackend::Solve(ensemble, query, {}, &stats).MoveValue();
  ASSERT_EQ(outcome.result, sat::SatResult::kSat);
  EXPECT_TRUE(outcome.validated);
  EXPECT_GT(stats.num_atom_vars, 0u);
  EXPECT_GT(stats.num_selector_vars, 0u);
  EXPECT_GT(stats.num_clauses, stats.num_atom_vars);
}

TEST(CnfForgeryBackendTest, UnsatCase) {
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
  auto outcome = CnfForgeryBackend::Solve(ensemble, query).MoveValue();
  EXPECT_EQ(outcome.result, sat::SatResult::kUnsat);
}

TEST(CnfForgeryBackendTest, BudgetReturnsUnknownOrSolves) {
  auto model = SmallTrainedModel(3, 10);
  Rng rng(5);
  auto fake = core::Signature::Random(10, 0.5, &rng);
  ForgeryQuery query;
  query.signature_bits = fake.bits();
  query.target_label = +1;
  sat::SolveBudget budget;
  budget.max_conflicts = 1;
  auto outcome = CnfForgeryBackend::Solve(model, query, budget).MoveValue();
  // Either decided within one conflict or honestly unknown.
  EXPECT_TRUE(outcome.result == sat::SatResult::kUnknown ||
              outcome.result == sat::SatResult::kSat ||
              outcome.result == sat::SatResult::kUnsat);
}

/// The central property: both complete backends agree on satisfiability, and
/// SAT witnesses from each satisfy the required pattern.
struct AgreementParam {
  uint64_t seed;
  double epsilon;
};

constexpr AgreementParam kAgreementParams[] = {{1, 0.1}, {2, 0.3}, {3, 0.5},
                                               {4, 0.7}, {5, 0.9}, {6, 0.2}};

/// The six queries one sweep point asks both backends, with the model they
/// are asked of: fake signatures of density 0.5, alternating target labels,
/// anchors drawn from a second blob sample.
struct AgreementCase {
  forest::RandomForest model;
  std::vector<ForgeryQuery> queries;
};

AgreementCase AgreementQueries(const AgreementParam& p) {
  AgreementCase out{SmallTrainedModel(p.seed, 8), {}};
  auto data = data::synthetic::MakeBlobs(p.seed + 100, 50, 5, 1.2);
  Rng rng(p.seed);
  for (int trial = 0; trial < 6; ++trial) {
    auto fake = core::Signature::Random(8, 0.5, &rng);
    ForgeryQuery query;
    query.signature_bits = fake.bits();
    query.target_label = trial % 2 == 0 ? +1 : -1;
    const size_t row = rng.UniformInt(data.num_rows());
    query.anchor.assign(data.Row(row).begin(), data.Row(row).end());
    query.epsilon = p.epsilon;
    out.queries.push_back(std::move(query));
  }
  return out;
}

class BackendAgreementSweep : public ::testing::TestWithParam<AgreementParam> {};

TEST_P(BackendAgreementSweep, BoxAndCnfBackendsAgree) {
  const AgreementParam p = GetParam();
  const AgreementCase sweep = AgreementQueries(p);
  for (size_t trial = 0; trial < sweep.queries.size(); ++trial) {
    const ForgeryQuery& query = sweep.queries[trial];
    auto box_outcome = ForgerySolver::Solve(sweep.model, query).MoveValue();
    auto cnf_outcome = CnfForgeryBackend::Solve(sweep.model, query).MoveValue();
    EXPECT_EQ(box_outcome.result, cnf_outcome.result)
        << "seed=" << p.seed << " trial=" << trial;
    if (cnf_outcome.result == sat::SatResult::kSat) {
      EXPECT_TRUE(cnf_outcome.validated);
      for (size_t f = 0; f < cnf_outcome.witness.size(); ++f) {
        EXPECT_LE(std::fabs(cnf_outcome.witness[f] - query.anchor[f]),
                  p.epsilon + 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndEpsilons, BackendAgreementSweep,
                         ::testing::ValuesIn(kAgreementParams));

// Golden pin of the CNF route on the agreement sweep's queries: verdict,
// CDCL conflict count, witness bytes and the encoding's size. The encoding
// is deterministic (atoms by feature, then ascending threshold; selectors
// in leaf order), so a change to how the requirements reach the encoder
// must leave every row as it is.
TEST(CnfGoldenTest, AgreementQueriesMatchPinnedValues) {
  using enum sat::SatResult;
  const struct {
    sat::SatResult result;
    uint64_t conflicts;
    uint32_t witness_crc;  ///< Crc32 of the witness floats' bytes
    size_t atom_vars;
    size_t selector_vars;
    size_t clauses;
  } kGolden[] = {
      // seed 1, epsilon 0.1
      {kUnsat, 4, 0x00000000u, 337, 271, 1520},
      {kUnsat, 0, 0x00000000u, 337, 270, 1546},
      {kUnsat, 0, 0x00000000u, 337, 270, 1531},
      {kUnsat, 0, 0x00000000u, 337, 272, 1558},
      {kUnsat, 3, 0x00000000u, 337, 269, 1560},
      {kUnsat, 27, 0x00000000u, 337, 273, 1482},
      // seed 2, epsilon 0.3
      {kUnsat, 0, 0x00000000u, 340, 258, 1417},
      {kUnsat, 17, 0x00000000u, 340, 255, 1366},
      {kSat, 4, 0x10C4B9B3u, 340, 258, 1395},
      {kSat, 0, 0x3B5A2043u, 340, 265, 1407},
      {kUnsat, 17, 0x00000000u, 340, 252, 1381},
      {kSat, 0, 0xA51F820Cu, 340, 261, 1322},
      // seed 3, epsilon 0.5
      {kSat, 1, 0xD9E84F1Au, 392, 269, 1442},
      {kSat, 2, 0x72FBE74Cu, 392, 270, 1403},
      {kUnsat, 73, 0x00000000u, 392, 264, 1355},
      {kUnsat, 42, 0x00000000u, 392, 268, 1433},
      {kUnsat, 72, 0x00000000u, 392, 269, 1442},
      {kUnsat, 59, 0x00000000u, 392, 271, 1422},
      // seed 4, epsilon 0.7
      {kSat, 4, 0x21E59FD6u, 274, 262, 1210},
      {kUnsat, 126, 0x00000000u, 274, 262, 1214},
      {kUnsat, 70, 0x00000000u, 274, 261, 1211},
      {kSat, 3, 0xDF50CE36u, 274, 260, 1203},
      {kUnsat, 83, 0x00000000u, 274, 262, 1213},
      {kUnsat, 52, 0x00000000u, 274, 262, 1225},
      // seed 5, epsilon 0.9
      {kSat, 0, 0x8A522F27u, 465, 304, 1550},
      {kSat, 1, 0xC1434B40u, 465, 303, 1543},
      {kUnsat, 101, 0x00000000u, 465, 297, 1522},
      {kSat, 0, 0x33D667C0u, 465, 312, 1569},
      {kUnsat, 78, 0x00000000u, 465, 305, 1550},
      {kSat, 0, 0x6A644E2Bu, 465, 306, 1554},
      // seed 6, epsilon 0.2
      {kUnsat, 19, 0x00000000u, 281, 277, 1401},
      {kUnsat, 7, 0x00000000u, 281, 277, 1437},
      {kUnsat, 5, 0x00000000u, 281, 278, 1473},
      {kUnsat, 31, 0x00000000u, 281, 279, 1392},
      {kUnsat, 29, 0x00000000u, 281, 281, 1447},
      {kUnsat, 39, 0x00000000u, 281, 278, 1378},
  };
  size_t row = 0;
  for (const AgreementParam& p : kAgreementParams) {
    const AgreementCase sweep = AgreementQueries(p);
    for (const ForgeryQuery& query : sweep.queries) {
      const auto& golden = kGolden[row];
      CnfEncodingStats stats;
      const auto outcome =
          CnfForgeryBackend::Solve(sweep.model, query, {}, &stats).MoveValue();
      EXPECT_EQ(outcome.result, golden.result) << "row " << row;
      EXPECT_EQ(outcome.nodes_explored, golden.conflicts) << "row " << row;
      const auto& w = outcome.witness;
      EXPECT_EQ(Crc32(std::span(reinterpret_cast<const uint8_t*>(w.data()),
                                w.size() * sizeof(float))),
                golden.witness_crc)
          << "row " << row;
      EXPECT_EQ(stats.num_atom_vars, golden.atom_vars) << "row " << row;
      EXPECT_EQ(stats.num_selector_vars, golden.selector_vars) << "row " << row;
      EXPECT_EQ(stats.num_clauses, golden.clauses) << "row " << row;
      ++row;
    }
  }
  EXPECT_EQ(row, std::size(kGolden));
}

}  // namespace
}  // namespace treewm::smt
