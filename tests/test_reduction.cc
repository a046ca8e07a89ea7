// Tests for the Theorem-1 reduction: 3SAT <=> watermark forgery.

#include "reduction/reduction.h"

#include <gtest/gtest.h>

#include "sat/solver.h"

namespace treewm::reduction {
namespace {

using sat::Lit;

ThreeCnf PaperFigure2Formula() {
  // (x1 | x2) & (x2 | x3 | ~x4) from the paper's Figure 2 (0-indexed).
  ThreeCnf f;
  f.num_vars = 4;
  f.clauses = {{Lit::Make(0), Lit::Make(1)},
               {Lit::Make(1), Lit::Make(2), Lit::Make(3, true)}};
  return f;
}

TEST(FormulaToEnsembleTest, PaperFigure2Shape) {
  auto ensemble = FormulaToEnsemble(PaperFigure2Formula()).MoveValue();
  EXPECT_EQ(ensemble.num_trees(), 2u);  // one tree per clause
  EXPECT_EQ(ensemble.num_features(), 4u);
  // Clause trees have depth = number of literals.
  EXPECT_EQ(ensemble.trees()[0].Depth(), 2);
  EXPECT_EQ(ensemble.trees()[1].Depth(), 3);
  // All thresholds are zero.
  for (const auto& t : ensemble.trees()) {
    for (const auto& node : t.nodes()) {
      if (node.feature != -1) {
        EXPECT_FLOAT_EQ(node.threshold, 0.0f);
      }
    }
  }
}

TEST(FormulaToEnsembleTest, TreeOutputsMirrorClauseTruth) {
  auto f = PaperFigure2Formula();
  auto ensemble = FormulaToEnsemble(f).MoveValue();
  // Encode assignment as features: true -> +0.5, false -> -0.5.
  auto encode = [](std::vector<bool> a) {
    std::vector<float> x(a.size());
    for (size_t i = 0; i < a.size(); ++i) x[i] = a[i] ? 0.5f : -0.5f;
    return x;
  };
  for (uint32_t mask = 0; mask < 16; ++mask) {
    std::vector<bool> assignment(4);
    for (size_t j = 0; j < 4; ++j) assignment[j] = (mask >> j) & 1;
    const auto x = encode(assignment);
    for (size_t c = 0; c < f.clauses.size(); ++c) {
      bool clause_true = false;
      for (const Lit& l : f.clauses[c]) {
        if (assignment[static_cast<size_t>(l.var())] != l.negated()) {
          clause_true = true;
          break;
        }
      }
      EXPECT_EQ(ensemble.trees()[c].Predict(x), clause_true ? +1 : -1)
          << "mask=" << mask << " clause=" << c;
    }
  }
}

TEST(ReductionQueryTest, AllZeroSignaturePositiveLabel) {
  auto query = ReductionQuery(5);
  EXPECT_EQ(query.signature_bits, std::vector<uint8_t>(5, 0));
  EXPECT_EQ(query.target_label, +1);
  EXPECT_LT(query.domain_lo, 0.0);
  EXPECT_GT(query.domain_hi, 0.0);
}

TEST(WitnessToAssignmentTest, PositiveMeansTrue) {
  auto assignment = WitnessToAssignment(std::vector<float>{0.5f, -0.5f, 0.0f});
  EXPECT_EQ(assignment, (std::vector<bool>{true, false, false}));
}

TEST(SolveThreeSatViaForgeryTest, SatisfiableFormula) {
  auto result = SolveThreeSatViaForgery(PaperFigure2Formula());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(PaperFigure2Formula().Evaluate(result.value()));
}

TEST(SolveThreeSatViaForgeryTest, UnsatisfiableFormula) {
  // (x0) & (~x0) via unit clauses.
  ThreeCnf f;
  f.num_vars = 3;
  f.clauses = {{Lit::Make(0)}, {Lit::Make(0, true)}};
  auto result = SolveThreeSatViaForgery(f);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(SolveThreeSatViaForgeryTest, AllSevenLiteralCombinations) {
  // For a single clause, every assignment returned must satisfy it.
  for (int signs = 0; signs < 8; ++signs) {
    ThreeCnf f;
    f.num_vars = 3;
    f.clauses = {{Lit::Make(0, signs & 1), Lit::Make(1, signs & 2),
                  Lit::Make(2, signs & 4)}};
    auto result = SolveThreeSatViaForgery(f);
    ASSERT_TRUE(result.ok()) << "signs=" << signs;
    EXPECT_TRUE(f.Evaluate(result.value())) << "signs=" << signs;
  }
}

/// Equivalence sweep: on random formulas across the SAT/UNSAT spectrum the
/// reduction must agree with the CDCL solver (this is Theorem 1 in action).
struct ReductionParam {
  int num_vars;
  int num_clauses;
};

class ReductionEquivalenceSweep : public ::testing::TestWithParam<ReductionParam> {};

TEST_P(ReductionEquivalenceSweep, AgreesWithCdclSolver) {
  const ReductionParam p = GetParam();
  Rng rng(static_cast<uint64_t>(p.num_vars * 1000 + p.num_clauses));
  for (int iter = 0; iter < 25; ++iter) {
    auto f = RandomThreeCnf(p.num_vars, p.num_clauses, &rng).MoveValue();
    sat::Solver solver;
    const bool loaded = LoadIntoSolver(ToCnfFormula(f), &solver);
    const bool expect_sat = loaded && solver.Solve() == sat::SatResult::kSat;
    auto via_forgery = SolveThreeSatViaForgery(f);
    EXPECT_EQ(via_forgery.ok(), expect_sat) << "iter=" << iter;
    if (via_forgery.ok()) {
      EXPECT_TRUE(f.Evaluate(via_forgery.value()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ReductionEquivalenceSweep,
    ::testing::Values(ReductionParam{5, 10}, ReductionParam{8, 20},
                      ReductionParam{8, 34},   // near the 4.26 phase transition
                      ReductionParam{10, 43},  // near the 4.26 phase transition
                      ReductionParam{12, 30}, ReductionParam{6, 40}));

}  // namespace
}  // namespace treewm::reduction
