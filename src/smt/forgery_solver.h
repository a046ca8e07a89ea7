// Complete decision procedure for the watermark forgery problem.
//
// Plays the role Z3 plays in the paper's §4.2.2: given an ensemble T, a
// (fake) signature σ' and a label y, decide whether some instance x — here
// optionally confined to an L∞ ball around a real test instance and to the
// [0,1] feature domain — makes every tree output the σ'-required label, and
// produce such an x when one exists.
//
// The theory is a conjunction over trees of disjunctions of axis-aligned
// boxes, so a branch-and-propagate search over per-tree leaf choices with
// dynamic fail-first tree ordering is complete. A node budget stands in for
// Z3's wall-clock timeout (deterministic across machines). Results are
// validated against the actual ensemble before being reported SAT.
//
// The search runs over a CompiledRequirements arena (leaf boxes flattened
// once per (forest, σ', y)) with *watched options*: per-option liveness
// flags and per-requirement feasible-option counters maintained
// incrementally through the arena's per-feature inverted index, plus a kill
// trail for O(changes) backtracking. SolveBatch amortizes the arena across
// every anchor of an attack and fans anchors over a thread pool; the scalar
// Solve is the one-anchor wrapper over the same engine, so both paths are
// bit-identical by construction. See src/smt/README.md.

#ifndef TREEWM_SMT_FORGERY_SOLVER_H_
#define TREEWM_SMT_FORGERY_SOLVER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "forest/random_forest.h"
#include "sat/clause.h"
#include "smt/box.h"
#include "smt/compiled_requirements.h"
#include "smt/tree_constraints.h"

namespace treewm::smt {

/// Validates the shared ball geometry of a forgery query. This is the ONE
/// place the solver-side ε domain is defined: ε is an L∞ radius, any finite
/// value >= 0 is accepted (NaN and +∞ are rejected), the domain ends must be
/// finite with domain_lo <= domain_hi, and ε >= domain_hi - domain_lo
/// simply makes the ball non-binding. The attack layer narrows this domain:
/// attacks::ForgeryAttackConfig requires ε ∈ (0,1) because attack anchors
/// live in the normalized [0,1] feature domain, where ε >= 1 removes the
/// distortion bound entirely and ε = 0 is an exact-match query that cannot
/// forge anything new (see forgery_attack.h).
[[nodiscard]] Status ValidateBallGeometry(double epsilon, double domain_lo, double domain_hi);

/// One forgery query: find x with t_i(x) = label ⇔ bits[i] = 0, subject to
/// x ∈ [domain_lo, domain_hi]^d and, when `anchor` is non-empty,
/// ‖x − anchor‖_∞ <= epsilon.
struct ForgeryQuery {
  std::vector<uint8_t> signature_bits;
  int target_label = +1;
  std::vector<float> anchor;  ///< empty = unconstrained ball
  /// L∞ radius; domain per ValidateBallGeometry (any finite ε >= 0). The
  /// default 1.0 is non-binding on the default [0,1] feature domain.
  double epsilon = 1.0;
  double domain_lo = 0.0;
  double domain_hi = 1.0;
  /// Search budget in explored nodes; 0 = unlimited.
  uint64_t max_nodes = 0;
};

/// Shared parameters of a multi-anchor forgery solve. The per-anchor target
/// label is the anchor Dataset's own row label (the attack queries each test
/// instance with its label as y, so one batch naturally mixes both labels;
/// the engine compiles one requirement arena per label present and shares it
/// across all anchors and threads).
struct ForgeryBatchQuery {
  std::vector<uint8_t> signature_bits;
  /// L∞ radius around each anchor; domain per ValidateBallGeometry.
  double epsilon = 1.0;
  double domain_lo = 0.0;
  double domain_hi = 1.0;
  /// Per-anchor search budget in explored nodes; 0 = unlimited.
  uint64_t max_nodes_per_anchor = 0;
  /// The pool anchors fan out on; nullptr is serial. The caller owns the
  /// pool and keeps it alive through the call. The pool never changes
  /// outcomes — every anchor's search is independent.
  ThreadPool* pool = &ThreadPool::Global();
};

/// Result of a forgery attempt.
struct ForgeryOutcome {
  sat::SatResult result = sat::SatResult::kUnknown;
  /// A validated forged instance when result == kSat.
  std::vector<float> witness;
  /// Search effort (nodes expanded).
  uint64_t nodes_explored = 0;
  /// True when the witness was checked against the ensemble (always the case
  /// for kSat results).
  bool validated = false;
};

/// Reusable per-(forest, σ') arena cache for repeated SolveBatch calls (the
/// attack driver solves anchor chunks against the same fake signature; the
/// cache compiles each label's arena once across chunks). SolveBatch
/// verifies a cached arena's signature bits, target label and feature count
/// and fails rather than silently solving a stale query. Forest identity is
/// NOT verifiable from the arena — a cache must not outlive the forest it
/// was populated against (retrain ⇒ fresh cache).
struct ForgeryArenaCache {
  std::shared_ptr<const CompiledRequirements> positive;  ///< y = +1
  std::shared_ptr<const CompiledRequirements> negative;  ///< y = -1
};

/// The branch-and-propagate forgery solver.
class ForgerySolver {
 public:
  /// Decides `query` against `forest` (compiles the requirement arena for
  /// this one query; use the CompiledRequirements overload or SolveBatch to
  /// amortize the build across queries).
  [[nodiscard]] static Result<ForgeryOutcome> Solve(const forest::RandomForest& forest,
                                      const ForgeryQuery& query);

  /// Same, over a pre-compiled arena. `compiled` must have been built from
  /// `forest` with the query's signature bits and target label (verified;
  /// mismatch is an InvalidArgument).
  [[nodiscard]] static Result<ForgeryOutcome> Solve(const forest::RandomForest& forest,
                                      const CompiledRequirements& compiled,
                                      const ForgeryQuery& query);

  /// Multi-anchor solve: decides one query per row of `anchors` (target
  /// label = row label, ball = ε-L∞ around the row) and returns the outcomes
  /// in row order. Requirement arenas are compiled once per label and shared
  /// across anchors; anchors fan out on query.pool with one reusable search
  /// workspace per worker; all found witnesses are validated through one
  /// PatternHoldsBatch call per label at the end (a model-level batch call,
  /// so on the process pool). Outcomes are bit-identical to calling the
  /// scalar Solve per row, on every pool. `cache` (optional) reuses arenas
  /// across calls.
  [[nodiscard]] static Result<std::vector<ForgeryOutcome>> SolveBatch(
      const forest::RandomForest& forest, const ForgeryBatchQuery& query,
      const data::Dataset& anchors, ForgeryArenaCache* cache = nullptr);

  /// Checks that `witness` actually induces the required output pattern —
  /// the acceptance test Charlie would run. Routed through the batched
  /// flat-engine path (a one-row PatternHoldsBatch); returns false on a
  /// signature/feature dimensionality mismatch.
  static bool PatternHolds(const forest::RandomForest& forest,
                           const std::vector<uint8_t>& signature_bits,
                           int target_label, std::span<const float> witness);

  /// Batched acceptance test: result[i] != 0 iff row i of `witnesses`
  /// induces the σ'-required per-tree pattern for `target_label`. All rows
  /// are validated through one flat-engine vote-matrix query instead of a
  /// scalar PredictAll per witness — the entry point candidate witnesses and
  /// solver counterexamples go through in row blocks. A signature-length or
  /// feature-count mismatch fails every row.
  static std::vector<uint8_t> PatternHoldsBatch(
      const forest::RandomForest& forest,
      const std::vector<uint8_t>& signature_bits, int target_label,
      const data::Dataset& witnesses);
};

}  // namespace treewm::smt

#endif  // TREEWM_SMT_FORGERY_SOLVER_H_
