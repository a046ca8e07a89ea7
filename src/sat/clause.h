// Core SAT types: variables, literals, clauses, ternary truth values.
//
// Conventions follow MiniSat: variables are 0-based ints; a literal packs
// (variable << 1) | sign where sign 1 means negation.

#ifndef TREEWM_SAT_CLAUSE_H_
#define TREEWM_SAT_CLAUSE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace treewm::sat {

/// A propositional variable (0-based).
using Var = int32_t;

/// A literal: a variable or its negation.
class Lit {
 public:
  Lit() : code_(-2) {}

  /// Literal for `var`, negated when `negated` is true.
  static Lit Make(Var var, bool negated = false) {
    Lit l;
    l.code_ = (var << 1) | static_cast<int32_t>(negated);
    return l;
  }

  /// The underlying variable.
  Var var() const { return code_ >> 1; }

  /// True when this is the negation of its variable.
  bool negated() const { return (code_ & 1) != 0; }

  /// The complementary literal.
  Lit Negated() const {
    Lit l;
    l.code_ = code_ ^ 1;
    return l;
  }

  /// Dense index usable for watch lists (2*var + sign).
  int32_t index() const { return code_; }

  /// An invalid sentinel literal.
  static Lit Undef() { return Lit(); }

  bool operator==(const Lit& other) const { return code_ == other.code_; }
  bool operator!=(const Lit& other) const { return code_ != other.code_; }
  bool operator<(const Lit& other) const { return code_ < other.code_; }

  /// "x3" / "~x3" for debugging.
  std::string ToString() const;

 private:
  int32_t code_;
};

/// Ternary truth value.
enum class LBool : int8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

inline LBool BoolToLBool(bool b) { return b ? LBool::kTrue : LBool::kFalse; }

/// A disjunction of literals. Learnt clauses carry an activity for deletion
/// heuristics.
struct Clause {
  std::vector<Lit> lits;
  bool learnt = false;
  double activity = 0.0;
};

/// Result of a SAT solver run.
enum class SatResult { kSat, kUnsat, kUnknown };

}  // namespace treewm::sat

#endif  // TREEWM_SAT_CLAUSE_H_
