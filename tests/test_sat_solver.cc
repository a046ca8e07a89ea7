// Unit, property and fuzz tests for the CDCL SAT solver.

#include "sat/solver.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace treewm::sat {
namespace {

Lit Pos(Var v) { return Lit::Make(v, false); }
Lit Neg(Var v) { return Lit::Make(v, true); }

TEST(LitTest, EncodingRoundTrips) {
  Lit l = Lit::Make(5, true);
  EXPECT_EQ(l.var(), 5);
  EXPECT_TRUE(l.negated());
  EXPECT_EQ(l.Negated().var(), 5);
  EXPECT_FALSE(l.Negated().negated());
  EXPECT_EQ(l.Negated().Negated(), l);
  EXPECT_EQ(l.ToString(), "~x5");
  EXPECT_EQ(Pos(3).ToString(), "x3");
}

TEST(SolverTest, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.Solve(), SatResult::kSat);
}

TEST(SolverTest, SingleUnitClause) {
  Solver s;
  Var x = s.NewVar();
  EXPECT_TRUE(s.AddClause({Pos(x)}));
  EXPECT_EQ(s.Solve(), SatResult::kSat);
  EXPECT_TRUE(s.ModelValue(x));
}

TEST(SolverTest, ConflictingUnitsAreUnsat) {
  Solver s;
  Var x = s.NewVar();
  EXPECT_TRUE(s.AddClause({Pos(x)}));
  EXPECT_FALSE(s.AddClause({Neg(x)}));
  EXPECT_TRUE(s.proven_unsat());
  EXPECT_EQ(s.Solve(), SatResult::kUnsat);
}

TEST(SolverTest, EmptyClauseIsUnsat) {
  Solver s;
  EXPECT_FALSE(s.AddClause({}));
  EXPECT_EQ(s.Solve(), SatResult::kUnsat);
}

TEST(SolverTest, TautologyIsDropped) {
  Solver s;
  Var x = s.NewVar();
  EXPECT_TRUE(s.AddClause({Pos(x), Neg(x)}));
  EXPECT_EQ(s.Solve(), SatResult::kSat);
}

TEST(SolverTest, DuplicateLiteralsAreMerged) {
  Solver s;
  Var x = s.NewVar();
  Var y = s.NewVar();
  EXPECT_TRUE(s.AddClause({Pos(x), Pos(x), Neg(y)}));
  EXPECT_EQ(s.Solve(), SatResult::kSat);
}

TEST(SolverTest, ImplicationChainPropagates) {
  Solver s;
  s.EnsureVars(10);
  // x0 and chain x_i -> x_{i+1} forces all true.
  EXPECT_TRUE(s.AddClause({Pos(0)}));
  for (Var v = 0; v + 1 < 10; ++v) {
    EXPECT_TRUE(s.AddClause({Neg(v), Pos(v + 1)}));
  }
  ASSERT_EQ(s.Solve(), SatResult::kSat);
  for (Var v = 0; v < 10; ++v) EXPECT_TRUE(s.ModelValue(v));
}

TEST(SolverTest, SimpleUnsatCore) {
  // (x | y) & (x | ~y) & (~x | y) & (~x | ~y) is UNSAT.
  Solver s;
  Var x = s.NewVar();
  Var y = s.NewVar();
  EXPECT_TRUE(s.AddClause({Pos(x), Pos(y)}));
  EXPECT_TRUE(s.AddClause({Pos(x), Neg(y)}));
  EXPECT_TRUE(s.AddClause({Neg(x), Pos(y)}));
  EXPECT_TRUE(s.AddClause({Neg(x), Neg(y)}));
  EXPECT_EQ(s.Solve(), SatResult::kUnsat);
}

/// Pigeonhole principle PHP(n+1, n): n+1 pigeons into n holes — UNSAT and
/// requires real clause learning to finish quickly.
void AddPigeonhole(Solver* s, int pigeons, int holes) {
  // var(p, h) = p*holes + h.
  s->EnsureVars(pigeons * holes);
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> some_hole;
    for (int h = 0; h < holes; ++h) some_hole.push_back(Pos(p * holes + h));
    ASSERT_TRUE(s->AddClause(some_hole));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        ASSERT_TRUE(s->AddClause({Neg(p1 * holes + h), Neg(p2 * holes + h)}));
      }
    }
  }
}

TEST(SolverTest, PigeonholeUnsat) {
  for (int n : {3, 4, 5, 6}) {
    Solver s;
    AddPigeonhole(&s, n + 1, n);
    EXPECT_EQ(s.Solve(), SatResult::kUnsat) << "PHP(" << n + 1 << "," << n << ")";
  }
}

TEST(SolverTest, PigeonholeSatWhenEnoughHoles) {
  Solver s;
  AddPigeonhole(&s, 4, 4);
  EXPECT_EQ(s.Solve(), SatResult::kSat);
  EXPECT_TRUE(s.ModelSatisfiesFormula(s.Model()));
}

TEST(SolverTest, BudgetReturnsUnknown) {
  Solver s;
  AddPigeonhole(&s, 9, 8);  // hard enough to exceed a one-conflict budget
  SolveBudget budget;
  budget.max_conflicts = 1;
  EXPECT_EQ(s.Solve(budget), SatResult::kUnknown);
  // And solvable once the budget is lifted.
  EXPECT_EQ(s.Solve(), SatResult::kUnsat);
}

TEST(SolverTest, StatsArePopulated) {
  Solver s;
  AddPigeonhole(&s, 6, 5);
  EXPECT_EQ(s.Solve(), SatResult::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
}

TEST(SolverTest, SolveIsRepeatable) {
  Solver s;
  Var x = s.NewVar();
  Var y = s.NewVar();
  EXPECT_TRUE(s.AddClause({Pos(x), Pos(y)}));
  EXPECT_EQ(s.Solve(), SatResult::kSat);
  EXPECT_EQ(s.Solve(), SatResult::kSat);
  EXPECT_TRUE(s.ModelSatisfiesFormula(s.Model()));
}

TEST(LoadIntoSolverTest, SolvesLoadedFormula) {
  const CnfFormula f{3, {{Pos(0), Pos(1)}, {Neg(0), Pos(2)}, {Neg(1), Neg(2)}}};
  Solver s;
  ASSERT_TRUE(LoadIntoSolver(f, &s));
  EXPECT_EQ(s.Solve(), SatResult::kSat);
  EXPECT_TRUE(s.ModelSatisfiesFormula(s.Model()));
}

TEST(LoadIntoSolverTest, DetectsTrivialUnsat) {
  const CnfFormula f{1, {{Pos(0)}, {Neg(0)}}};
  Solver s;
  EXPECT_FALSE(LoadIntoSolver(f, &s));
}

/// Exhaustive reference check for small formulas.
bool BruteForceSat(const CnfFormula& f) {
  for (uint64_t mask = 0; mask < (1ULL << f.num_vars); ++mask) {
    bool all = true;
    for (const auto& clause : f.clauses) {
      bool sat = false;
      for (const Lit& l : clause) {
        const bool value = (mask >> l.var()) & 1;
        if (value != l.negated()) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

/// Fuzz sweep across clause densities: CDCL must agree with brute force and
/// return verifiable models.
class RandomCnfSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomCnfSweep, AgreesWithBruteForce) {
  const int num_clauses = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(num_clauses));
  for (int iter = 0; iter < 300; ++iter) {
    CnfFormula f;
    f.num_vars = 3 + static_cast<int>(rng.UniformInt(9));
    for (int c = 0; c < num_clauses; ++c) {
      std::vector<Lit> clause;
      const int len = 1 + static_cast<int>(rng.UniformInt(3));
      for (int j = 0; j < len; ++j) {
        clause.push_back(Lit::Make(static_cast<Var>(rng.UniformInt(
                                       static_cast<uint64_t>(f.num_vars))),
                                   rng.Bernoulli(0.5)));
      }
      f.clauses.push_back(std::move(clause));
    }
    Solver s;
    const bool loaded = LoadIntoSolver(f, &s);
    const bool got = loaded && s.Solve() == SatResult::kSat;
    EXPECT_EQ(got, BruteForceSat(f)) << "iteration " << iter;
    if (got) {
      EXPECT_TRUE(s.ModelSatisfiesFormula(s.Model()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, RandomCnfSweep,
                         ::testing::Values(5, 15, 30, 50, 80));

}  // namespace
}  // namespace treewm::sat
