// Flat, immutable, shareable image of a forgery query's requirements.
//
// The forgery problem (paper Definition 1) asks for an instance x with
// t_i(x) = y ⇔ σ_i = 0 for every tree. Per tree that is a disjunction over
// the leaves carrying the required label, each leaf an axis-aligned box
// (§3.3's formula φ is exactly this structure). Compile walks every tree
// once (DecisionTree::ForEachLeaf) and packs the boxes of the required
// label straight into a struct-of-arrays arena (the src/predict/ recipe
// applied to the solver): leaf options lie contiguously per requirement,
// and each option owns a feature-sorted span of interval constraints. The
// forgery attack solves one query per test anchor against the SAME
// (forest, σ', y), so one arena serves them all. Per feature, two watch
// lists hold the finite bounds of the constraints on that feature, one
// list of lo bounds and one of hi bounds, each ascending by (bound,
// option). When the search tightens a feature's interval, the options that
// become incompatible are exactly those with a bound in the strip the
// interval lost, so forgery_solver.cc binary-searches the strip's first
// entry and walks only the strip instead of rechecking every option that
// watches the feature. The CNF backend (cnf_encoder.h) encodes from the
// same arena.
//
// The arena is immutable after Compile and carries no per-query state, so
// one shared_ptr serves every anchor of an attack across threads.

#ifndef TREEWM_SMT_COMPILED_REQUIREMENTS_H_
#define TREEWM_SMT_COMPILED_REQUIREMENTS_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "forest/random_forest.h"

namespace treewm::smt {

/// Required output of tree i under signature bit b_i and target label y:
/// y when b_i = 0, the opposite label when b_i = 1.
inline int RequiredLabel(int target_label, uint8_t signature_bit) {
  return signature_bit == 0 ? target_label : -target_label;
}

/// The compiled (forest, σ', y) requirement arena. All index arrays use
/// uint32 — a query with 2^32 leaf boxes is far beyond solvable anyway.
class CompiledRequirements {
 public:
  /// One watch-list entry: a finite bound of a constraint and the option
  /// owning that constraint. Bounds are tree thresholds, so a float holds
  /// them exactly.
  struct Watch {
    float bound;
    uint32_t option;
  };

  /// One bound kind's watch lists: feature f's entries are
  /// entries[begin[f], begin[f+1]), ascending by (bound, option). Infinite
  /// bounds are left out: no tightening can move an interval end past one.
  struct WatchLists {
    std::vector<uint32_t> begin;  ///< size d+1
    std::vector<Watch> entries;

    std::span<const Watch> of(size_t f) const {
      return std::span(entries).subspan(begin[f], begin[f + 1] - begin[f]);
    }
  };

  /// Compiles the requirements for (forest, signature_bits, target_label):
  /// requirement r holds the leaves of tree r that carry
  /// RequiredLabel(target_label, signature_bits[r]), in ForEachLeaf order.
  /// The signature must have one bit per tree and the label must be ±1
  /// (InvalidArgument otherwise). A leaf whose box is empty (a path that
  /// tests one feature with disjoint bounds) can never be chosen and is not
  /// an option.
  [[nodiscard]] static Result<std::shared_ptr<const CompiledRequirements>> Compile(
      const forest::RandomForest& forest,
      const std::vector<uint8_t>& signature_bits, int target_label);

  // ------------------------------------------------------------ metadata --
  size_t num_features() const { return num_features_; }
  size_t num_requirements() const { return req_option_begin_.size() - 1; }
  size_t num_options() const { return option_requirement_.size(); }
  size_t num_constraints() const { return constraint_feature_.size(); }
  const std::vector<uint8_t>& signature_bits() const { return signature_bits_; }
  int target_label() const { return target_label_; }

  // ------------------------------------------------------------- layout ---
  // Requirement r's options:     [req_option_begin()[r], req_option_begin()[r+1])
  // Option o's constraints:      [option_constraint_begin()[o], ...[o+1])
  //                              (sorted by feature; one entry per feature)
  // Feature f's watchers:        watch_by_lo().of(f), by constraint lo
  //                              watch_by_hi().of(f), by constraint hi

  std::span<const uint32_t> req_option_begin() const { return req_option_begin_; }
  std::span<const uint32_t> option_requirement() const { return option_requirement_; }
  std::span<const uint32_t> option_constraint_begin() const {
    return option_constraint_begin_;
  }
  std::span<const int32_t> constraint_feature() const { return constraint_feature_; }
  std::span<const double> constraint_lo() const { return constraint_lo_; }
  std::span<const double> constraint_hi() const { return constraint_hi_; }
  const WatchLists& watch_by_lo() const { return watch_by_lo_; }
  const WatchLists& watch_by_hi() const { return watch_by_hi_; }

 private:
  CompiledRequirements() = default;

  size_t num_features_ = 0;
  std::vector<uint8_t> signature_bits_;
  int target_label_ = 0;

  std::vector<uint32_t> req_option_begin_;       ///< size R+1
  std::vector<uint32_t> option_requirement_;     ///< size O
  std::vector<uint32_t> option_constraint_begin_;///< size O+1
  std::vector<int32_t> constraint_feature_;      ///< size C
  std::vector<double> constraint_lo_;            ///< size C (exclusive)
  std::vector<double> constraint_hi_;            ///< size C (inclusive)
  WatchLists watch_by_lo_;                       ///< finite lo bounds
  WatchLists watch_by_hi_;                       ///< finite hi bounds
};

}  // namespace treewm::smt

#endif  // TREEWM_SMT_COMPILED_REQUIREMENTS_H_
