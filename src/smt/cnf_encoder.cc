#include "smt/cnf_encoder.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>

#include "smt/compiled_requirements.h"

namespace treewm::smt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Atom bookkeeping for one feature: sorted thresholds and their variables.
struct FeatureAtoms {
  std::vector<double> thresholds;  // sorted, unique
  std::vector<sat::Var> vars;      // parallel to thresholds

  /// Variable of predicate "x_f <= v"; v must be a known threshold.
  sat::Var VarFor(double v) const {
    const auto it = std::lower_bound(thresholds.begin(), thresholds.end(), v);
    assert(it != thresholds.end() && *it == v);
    return vars[static_cast<size_t>(it - thresholds.begin())];
  }
};

}  // namespace

Result<ForgeryOutcome> CnfForgeryBackend::Solve(const forest::RandomForest& forest,
                                                const ForgeryQuery& query,
                                                const sat::SolveBudget& budget,
                                                CnfEncodingStats* stats_out) {
  const size_t d = forest.num_features();
  if (!query.anchor.empty() && query.anchor.size() != d) {
    return Status::InvalidArgument("anchor dimensionality mismatch");
  }
  TREEWM_RETURN_IF_ERROR(
      ValidateBallGeometry(query.epsilon, query.domain_lo, query.domain_hi));
  TREEWM_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledRequirements> arena,
      CompiledRequirements::Compile(forest, query.signature_bits, query.target_label));

  // Per-feature domain ∩ ball, snapped to the float grid exactly as the
  // watched-option solver snaps it (Box::ConstrainClosed). The atom units
  // below and the witness decode both read this box.
  Box box(d);
  for (size_t f = 0; f < d; ++f) {
    double lo = query.domain_lo;
    double hi = query.domain_hi;
    if (!query.anchor.empty()) {
      lo = std::max(lo, static_cast<double>(query.anchor[f]) - query.epsilon);
      hi = std::min(hi, static_cast<double>(query.anchor[f]) + query.epsilon);
    }
    if (lo > hi || !box.ConstrainClosed(static_cast<int>(f), lo, hi)) {
      ForgeryOutcome outcome;
      outcome.result = sat::SatResult::kUnsat;
      return outcome;
    }
  }

  sat::Solver solver;
  CnfEncodingStats stats;
  std::vector<FeatureAtoms> atoms(d);
  bool consistent = true;
  for (size_t f = 0; f < d; ++f) {
    // The thresholds feature f's constraints mention: the finite bounds of
    // its two watch lists, each already ascending, merged without
    // duplicates.
    const auto by_lo = arena->watch_by_lo().of(f);
    std::vector<double>& values = atoms[f].thresholds;
    for (const auto& w : by_lo) values.push_back(w.bound);
    for (const auto& w : arena->watch_by_hi().of(f)) values.push_back(w.bound);
    std::inplace_merge(values.begin(),
                       values.begin() + static_cast<std::ptrdiff_t>(by_lo.size()),
                       values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    std::vector<sat::Var>& vars = atoms[f].vars;
    for (size_t i = 0; i < values.size(); ++i) vars.push_back(solver.NewVar());
    stats.num_atom_vars += values.size();
    // Ordering: (x <= v_i) -> (x <= v_{i+1}).
    for (size_t i = 0; i + 1 < values.size(); ++i) {
      consistent &= solver.AddClause({sat::Lit::Make(vars[i], true),
                                      sat::Lit::Make(vars[i + 1], false)});
      ++stats.num_clauses;
    }
    // Domain/ball units over the box's (lo, hi]: v <= lo  =>  atom false;
    // v >= hi  =>  atom true.
    const Interval& bounds = box.Get(static_cast<int>(f));
    for (size_t i = 0; i < values.size(); ++i) {
      if (values[i] <= bounds.lo) {
        consistent &= solver.AddClause({sat::Lit::Make(vars[i], true)});
        ++stats.num_clauses;
      } else if (values[i] >= bounds.hi) {
        consistent &= solver.AddClause({sat::Lit::Make(vars[i], false)});
        ++stats.num_clauses;
      }
    }
  }

  // Leaf selectors and per-tree disjunctions.
  const auto rb = arena->req_option_begin();
  const auto cb = arena->option_constraint_begin();
  for (size_t r = 0; r < arena->num_requirements(); ++r) {
    if (rb[r] == rb[r + 1]) {
      ForgeryOutcome outcome;
      outcome.result = sat::SatResult::kUnsat;
      return outcome;
    }
    std::vector<sat::Lit> any_leaf;
    for (uint32_t o = rb[r]; o < rb[r + 1]; ++o) {
      const sat::Var selector = solver.NewVar();
      ++stats.num_selector_vars;
      any_leaf.push_back(sat::Lit::Make(selector, false));
      for (uint32_t c = cb[o]; c < cb[o + 1]; ++c) {
        const FeatureAtoms& fa =
            atoms[static_cast<size_t>(arena->constraint_feature()[c])];
        const double lo = arena->constraint_lo()[c];
        const double hi = arena->constraint_hi()[c];
        if (std::isfinite(hi)) {
          // selector -> (x <= hi)
          consistent &= solver.AddClause({sat::Lit::Make(selector, true),
                                          sat::Lit::Make(fa.VarFor(hi), false)});
          ++stats.num_clauses;
        }
        if (std::isfinite(lo)) {
          // selector -> not (x <= lo)
          consistent &= solver.AddClause({sat::Lit::Make(selector, true),
                                          sat::Lit::Make(fa.VarFor(lo), true)});
          ++stats.num_clauses;
        }
      }
    }
    consistent &= solver.AddClause(std::move(any_leaf));
    ++stats.num_clauses;
  }

  if (stats_out != nullptr) *stats_out = stats;

  ForgeryOutcome outcome;
  if (!consistent) {
    outcome.result = sat::SatResult::kUnsat;
    return outcome;
  }
  const sat::SatResult result = solver.Solve(budget);
  outcome.nodes_explored = solver.stats().conflicts;
  outcome.result = result;
  if (result != sat::SatResult::kSat) return outcome;

  // Decode: tightest interval per feature from atom truth values, then pick
  // a witness near the anchor.
  for (size_t f = 0; f < d; ++f) {
    const FeatureAtoms& fa = atoms[f];
    if (fa.thresholds.empty()) continue;
    double lo = -kInf;
    double hi = kInf;
    for (size_t i = 0; i < fa.thresholds.size(); ++i) {
      if (solver.ModelValue(fa.vars[i])) {
        hi = fa.thresholds[i];  // first true atom is the tightest upper bound
        break;
      }
      lo = fa.thresholds[i];  // false atom: x > threshold
    }
    if (!box.Constrain(static_cast<int>(f), lo, hi)) {
      return Status::Internal("decode: inconsistent atom assignment");
    }
  }
  outcome.witness = box.Witness(query.anchor);
  outcome.validated = ForgerySolver::PatternHolds(forest, query.signature_bits,
                                                  query.target_label, outcome.witness);
  if (!outcome.validated) {
    return Status::Internal("CNF-backend witness failed ensemble validation");
  }
  return outcome;
}

}  // namespace treewm::smt
