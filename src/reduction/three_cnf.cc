#include "reduction/three_cnf.h"

#include <algorithm>

#include "common/string_util.h"

namespace treewm::reduction {

Status ThreeCnf::Validate() const {
  for (size_t c = 0; c < clauses.size(); ++c) {
    if (clauses[c].empty() || clauses[c].size() > 3) {
      return Status::InvalidArgument(
          StrFormat("clause %zu has arity %zu (want 1..3)", c, clauses[c].size()));
    }
    for (const sat::Lit& l : clauses[c]) {
      if (l.var() < 0 || l.var() >= num_vars) {
        return Status::InvalidArgument(
            StrFormat("clause %zu references variable %d outside [0,%d)", c, l.var(),
                      num_vars));
      }
    }
  }
  return Status::OK();
}

bool ThreeCnf::Evaluate(const std::vector<bool>& assignment) const {
  for (const auto& clause : clauses) {
    bool satisfied = false;
    for (const sat::Lit& l : clause) {
      if (assignment[static_cast<size_t>(l.var())] != l.negated()) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

std::string ThreeCnf::ToString() const {
  std::string out;
  for (size_t c = 0; c < clauses.size(); ++c) {
    if (c > 0) out += " & ";
    out += "(";
    for (size_t i = 0; i < clauses[c].size(); ++i) {
      if (i > 0) out += " | ";
      out += clauses[c][i].ToString();
    }
    out += ")";
  }
  return out;
}

Result<ThreeCnf> RandomThreeCnf(int num_vars, int num_clauses, Rng* rng) {
  if (num_vars < 3) return Status::InvalidArgument("need at least 3 variables");
  if (num_clauses < 1) return Status::InvalidArgument("need at least 1 clause");
  ThreeCnf formula;
  formula.num_vars = num_vars;
  formula.clauses.reserve(static_cast<size_t>(num_clauses));
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<size_t> vars =
        rng->SampleWithoutReplacement(static_cast<size_t>(num_vars), 3);
    std::vector<sat::Lit> clause;
    clause.reserve(3);
    for (size_t v : vars) {
      clause.push_back(sat::Lit::Make(static_cast<sat::Var>(v), rng->Bernoulli(0.5)));
    }
    formula.clauses.push_back(std::move(clause));
  }
  return formula;
}

sat::CnfFormula ToCnfFormula(const ThreeCnf& formula) {
  sat::CnfFormula out;
  out.num_vars = formula.num_vars;
  out.clauses = formula.clauses;
  return out;
}

}  // namespace treewm::reduction
