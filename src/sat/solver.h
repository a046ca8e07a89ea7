// CDCL SAT solver.
//
// A conflict-driven clause-learning solver in the MiniSat lineage:
// two-watched-literal unit propagation, 1UIP conflict analysis, VSIDS
// variable ordering with phase saving, Luby restarts and activity-based
// learnt-clause deletion. It backs the eager CNF encoding of the watermark
// forgery problem (smt::CnfEncoder) and the 3SAT experiments around the
// paper's Theorem 1.

#ifndef TREEWM_SAT_SOLVER_H_
#define TREEWM_SAT_SOLVER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sat/clause.h"

namespace treewm::sat {

/// Search limits; 0 means unlimited.
struct SolveBudget {
  uint64_t max_conflicts = 0;
  uint64_t max_propagations = 0;
};

/// Counters describing one Solve() run.
struct SolveStats {
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t restarts = 0;
  uint64_t learnt_clauses = 0;
  uint64_t deleted_clauses = 0;
};

/// A CDCL SAT solver instance. Add variables and clauses, then Solve().
/// Solve() may be called repeatedly (the solver keeps learnt clauses), but
/// clauses cannot be removed.
class Solver {
 public:
  Solver();

  /// Creates a fresh variable and returns it.
  Var NewVar();

  /// Ensures variables [0, n) exist.
  void EnsureVars(int n);

  /// Number of variables.
  int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Adds a clause (disjunction of `lits`). Returns false when the clause
  /// makes the formula trivially unsatisfiable at level 0 (e.g. empty clause
  /// or conflicting units); the solver is then permanently UNSAT.
  bool AddClause(std::vector<Lit> lits);

  /// Runs the CDCL loop. Returns kSat/kUnsat, or kUnknown when the budget is
  /// exhausted first.
  SatResult Solve(const SolveBudget& budget = {});

  /// Model access after kSat: value of `v` in the satisfying assignment.
  bool ModelValue(Var v) const;

  /// The full model (index = variable).
  std::vector<bool> Model() const;

  /// True when the instance was proven unsatisfiable.
  bool proven_unsat() const { return unsat_; }

  /// Statistics from the most recent Solve().
  const SolveStats& stats() const { return stats_; }

  /// Verifies that `model` satisfies every original (non-learnt) clause.
  bool ModelSatisfiesFormula(const std::vector<bool>& model) const;

 private:
  using ClauseRef = int32_t;
  static constexpr ClauseRef kNoReason = -1;

  LBool ValueOf(Lit l) const {
    LBool v = assigns_[static_cast<size_t>(l.var())];
    if (v == LBool::kUndef) return LBool::kUndef;
    const bool truth = (v == LBool::kTrue) != l.negated();
    return BoolToLBool(truth);
  }

  void Enqueue(Lit l, ClauseRef reason);
  ClauseRef Propagate();
  void Analyze(ClauseRef conflict, std::vector<Lit>* learnt, int* backtrack_level);
  void Backtrack(int level);
  Lit PickBranchLit();
  void BumpVarActivity(Var v);
  void DecayVarActivity();
  void BumpClauseActivity(ClauseRef cref);
  void DecayClauseActivity();
  void ReduceDb();
  void AttachClause(ClauseRef cref);
  int CurrentLevel() const { return static_cast<int>(trail_limits_.size()); }

  // Order heap (max-heap on activity) with position tracking.
  void HeapInsert(Var v);
  Var HeapPopMax();
  void HeapUp(int i);
  void HeapDown(int i);
  bool HeapContains(Var v) const {
    return heap_position_[static_cast<size_t>(v)] >= 0;
  }

  std::vector<Clause> clauses_;  // both original and learnt
  std::vector<std::vector<ClauseRef>> watches_;  // indexed by Lit::index()

  std::vector<LBool> assigns_;
  std::vector<bool> saved_phase_;
  std::vector<double> activity_;
  std::vector<ClauseRef> reason_;
  std::vector<int> level_;

  std::vector<Lit> trail_;
  std::vector<int> trail_limits_;
  size_t propagate_head_ = 0;

  std::vector<Var> heap_;
  std::vector<int> heap_position_;

  std::vector<uint8_t> seen_;  // scratch for Analyze

  double var_activity_increment_ = 1.0;
  double clause_activity_increment_ = 1.0;
  size_t num_original_clauses_ = 0;
  bool unsat_ = false;

  SolveStats stats_;
};

/// An immutable CNF formula in memory.
struct CnfFormula {
  int num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
};

/// Loads `formula` into `solver` (creating variables as needed). Returns
/// false if the formula is trivially unsatisfiable during loading.
bool LoadIntoSolver(const CnfFormula& formula, Solver* solver);

}  // namespace treewm::sat

#endif  // TREEWM_SAT_SOLVER_H_
