// 3CNF formulas: representation, generation, evaluation.
//
// Matches the grammar in the paper's Theorem 1 proof: a 3CNF formula is a
// conjunction of clauses, each a disjunction of at most three literals.

#ifndef TREEWM_REDUCTION_THREE_CNF_H_
#define TREEWM_REDUCTION_THREE_CNF_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "sat/solver.h"

namespace treewm::reduction {

/// A 3CNF formula (clause arity 1..3).
struct ThreeCnf {
  int num_vars = 0;
  std::vector<std::vector<sat::Lit>> clauses;

  /// Checks arity and variable ranges.
  [[nodiscard]] Status Validate() const;

  /// Truth value under `assignment` (index = variable).
  bool Evaluate(const std::vector<bool>& assignment) const;

  /// Human-readable form, e.g. "(x1 | x2) & (x2 | x3 | ~x4)".
  std::string ToString() const;
};

/// Uniform random 3CNF with exactly 3 distinct-variable literals per clause
/// (the standard random-3SAT model; clause/variable ratio controls hardness,
/// ~4.26 is the classic phase transition).
[[nodiscard]] Result<ThreeCnf> RandomThreeCnf(int num_vars, int num_clauses, Rng* rng);

/// Conversion to the generic CNF container the solver loads.
sat::CnfFormula ToCnfFormula(const ThreeCnf& formula);

}  // namespace treewm::reduction

#endif  // TREEWM_REDUCTION_THREE_CNF_H_
