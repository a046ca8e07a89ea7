// Unit tests for 3CNF formulas.

#include "reduction/three_cnf.h"

#include <gtest/gtest.h>

namespace treewm::reduction {
namespace {

using sat::Lit;

ThreeCnf PaperExample() {
  // (x1 | x2) & (x2 | x3 | ~x4), 0-indexed: (x0|x1) & (x1|x2|~x3).
  ThreeCnf f;
  f.num_vars = 4;
  f.clauses = {{Lit::Make(0), Lit::Make(1)},
               {Lit::Make(1), Lit::Make(2), Lit::Make(3, true)}};
  return f;
}

TEST(ThreeCnfTest, ValidateAcceptsPaperExample) {
  EXPECT_TRUE(PaperExample().Validate().ok());
}

TEST(ThreeCnfTest, ValidateRejectsBadArity) {
  ThreeCnf f;
  f.num_vars = 5;
  f.clauses = {{Lit::Make(0), Lit::Make(1), Lit::Make(2), Lit::Make(3)}};
  EXPECT_FALSE(f.Validate().ok());
  f.clauses = {{}};
  EXPECT_FALSE(f.Validate().ok());
}

TEST(ThreeCnfTest, ValidateRejectsOutOfRangeVariable) {
  ThreeCnf f;
  f.num_vars = 2;
  f.clauses = {{Lit::Make(2)}};
  EXPECT_FALSE(f.Validate().ok());
}

TEST(ThreeCnfTest, EvaluateMatchesSemantics) {
  ThreeCnf f = PaperExample();
  // x0=T satisfies clause 1; x3=F satisfies clause 2 via ~x3.
  EXPECT_TRUE(f.Evaluate({true, false, false, false}));
  // x0=F, x1=F falsifies clause 1.
  EXPECT_FALSE(f.Evaluate({false, false, true, false}));
  // x1=T satisfies both clauses.
  EXPECT_TRUE(f.Evaluate({false, true, false, true}));
  // All false: clause 1 falsified.
  EXPECT_FALSE(f.Evaluate({false, false, false, true}));
}

TEST(ThreeCnfTest, ToStringIsReadable) {
  EXPECT_EQ(PaperExample().ToString(), "(x0 | x1) & (x1 | x2 | ~x3)");
}

TEST(RandomThreeCnfTest, ShapeIsCorrect) {
  Rng rng(3);
  auto f = RandomThreeCnf(10, 42, &rng).MoveValue();
  EXPECT_EQ(f.num_vars, 10);
  EXPECT_EQ(f.clauses.size(), 42u);
  EXPECT_TRUE(f.Validate().ok());
  for (const auto& clause : f.clauses) {
    EXPECT_EQ(clause.size(), 3u);
    // Distinct variables within a clause.
    EXPECT_NE(clause[0].var(), clause[1].var());
    EXPECT_NE(clause[1].var(), clause[2].var());
    EXPECT_NE(clause[0].var(), clause[2].var());
  }
}

TEST(RandomThreeCnfTest, RejectsDegenerateShapes) {
  Rng rng(4);
  EXPECT_FALSE(RandomThreeCnf(2, 5, &rng).ok());
  EXPECT_FALSE(RandomThreeCnf(5, 0, &rng).ok());
}

TEST(CnfFormulaBridgeTest, CopiesVariablesAndClauses) {
  ThreeCnf f = PaperExample();
  sat::CnfFormula generic = ToCnfFormula(f);
  EXPECT_EQ(generic.num_vars, 4);
  EXPECT_EQ(generic.clauses, f.clauses);
}

}  // namespace
}  // namespace treewm::reduction
