// Eager propositional encoding of the forgery problem (alternative backend).
//
// Classic eager-SMT reduction: one Boolean atom per (feature, threshold)
// predicate "x_f <= v", ordering clauses between consecutive thresholds of
// the same feature, a Tseitin selector per admissible leaf and a one-of-them
// disjunction per tree. The resulting CNF goes to the CDCL solver
// (sat::Solver) and SAT models are decoded back into feature vectors. The
// encoding reads the same CompiledRequirements arena the box solver
// searches: a feature's thresholds are its two watch lists' bounds, merged
// without duplicates, and a leaf's selector clauses read the option's
// constraint span. Variables are numbered feature by feature (ascending
// threshold), then one selector per option in arena order, so the CNF is a
// deterministic function of the arena.
//
// Exists for two reasons: (1) it cross-checks the dedicated box solver in
// tests — the two complete procedures must agree on satisfiability; (2) it
// is the ablation point for "dedicated decision procedure vs generic SAT"
// (see bench/ablation_solver_backend).

#ifndef TREEWM_SMT_CNF_ENCODER_H_
#define TREEWM_SMT_CNF_ENCODER_H_

#include "common/status.h"
#include "forest/random_forest.h"
#include "sat/solver.h"
#include "smt/forgery_solver.h"

namespace treewm::smt {

/// Statistics about one eager encoding.
struct CnfEncodingStats {
  size_t num_atom_vars = 0;      ///< (feature, threshold) predicates
  size_t num_selector_vars = 0;  ///< Tseitin leaf selectors
  size_t num_clauses = 0;
};

/// Solves `query` through the CNF route. Semantics match
/// ForgerySolver::Solve; `budget` bounds the CDCL search (kUnknown when
/// exhausted).
class CnfForgeryBackend {
 public:
  [[nodiscard]] static Result<ForgeryOutcome> Solve(const forest::RandomForest& forest,
                                      const ForgeryQuery& query,
                                      const sat::SolveBudget& budget = {},
                                      CnfEncodingStats* stats_out = nullptr);
};

}  // namespace treewm::smt

#endif  // TREEWM_SMT_CNF_ENCODER_H_
