#include "smt/forgery_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace treewm::smt {

Status ValidateBallGeometry(double epsilon, double domain_lo, double domain_hi) {
  // Negated comparisons so NaN parameters fail instead of slipping through;
  // an infinite ε or domain end would silently drop the bound it sets.
  if (!(epsilon >= 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("epsilon must be finite and non-negative");
  }
  if (!std::isfinite(domain_lo) || !std::isfinite(domain_hi)) {
    return Status::InvalidArgument("feature domain ends must be finite");
  }
  if (!(domain_lo <= domain_hi)) {
    return Status::InvalidArgument("empty feature domain");
  }
  return Status::OK();
}

namespace {

// The search's hot loops (the strip walks in PropagateFeature, the
// fail-first selection scan in Search) are small and branch-dense, and
// their speed depends on where they fall relative to 64-byte code lines.
// On a 4-CPU AMD EPYC host a 16-byte shift in link layout, caused by code
// elsewhere in the library, spread the former watch loop over three lines
// instead of two and made forge attacks ~25% slower with identical
// instructions. Aligning these two functions' loops to a cache line keeps
// their speed independent of link layout. GCC only; other compilers keep
// their default loop alignment.
#if defined(__GNUC__) && !defined(__clang__)
#define TREEWM_CACHE_LINE_LOOPS __attribute__((optimize("align-loops=64")))
#else
#define TREEWM_CACHE_LINE_LOOPS
#endif

/// Mutable watched-option search state. One instance per worker thread,
/// reused across anchors: Prepare() re-initializes in O(options) without
/// reallocating, and the arena itself is shared and immutable.
struct SearchState {
  Box box{0};
  const CompiledRequirements* arena = nullptr;
  /// Liveness flag per option: 1 iff every constraint of the option still
  /// intersects the current box. Maintained incrementally via the arena's
  /// per-feature watch lists.
  std::vector<uint8_t> option_alive;
  /// Per-requirement count of alive options — the fail-first selection
  /// score, cached instead of recomputed by rescanning every option.
  std::vector<uint32_t> req_alive;
  std::vector<uint8_t> assigned;  // per requirement
  /// Options killed since the root, in kill order; backtracking revives the
  /// suffix past a mark (O(changes), mirroring the Box trail).
  std::vector<uint32_t> kill_trail;
  size_t num_assigned = 0;
  uint64_t nodes = 0;
  uint64_t max_nodes = 0;
  bool budget_exhausted = false;

  void Prepare(const CompiledRequirements& a) {
    arena = &a;
    if (box.num_features() == a.num_features()) {
      box.Reset();
    } else {
      box = Box(a.num_features());
    }
    option_alive.assign(a.num_options(), 1);
    const auto rb = a.req_option_begin();
    req_alive.resize(a.num_requirements());
    for (size_t r = 0; r < a.num_requirements(); ++r) {
      req_alive[r] = rb[r + 1] - rb[r];
    }
    assigned.assign(a.num_requirements(), 0);
    kill_trail.clear();
    num_assigned = 0;
    nodes = 0;
    max_nodes = 0;
    budget_exhausted = false;
  }
};

void Kill(SearchState* state, uint32_t o) {
  if (!state->option_alive[o]) return;
  state->option_alive[o] = 0;
  --state->req_alive[state->arena->option_requirement()[o]];
  state->kill_trail.push_back(o);
}

/// Kills the alive options that the tightening of feature `f` from
/// `before` to its current interval made incompatible with the box.
///
/// Every alive option is compatible with the box: that holds at the root,
/// where the box is universal and the arena holds no empty leaf box, and
/// backtracking revives exactly the options killed since its mark. A constraint (lo, hi] stays compatible with the
/// box's (l, h] iff lo < h and hi > l. So when h drops to h' the newly
/// incompatible watchers are those with lo in [h', h), and when l rises to
/// l' those with hi in (l, l']: the strips the interval lost. Each strip is
/// one binary search into a bound-sorted watch list and a walk to its end.
/// The kills are the set a recheck of every watcher would find; only their
/// order differs, and backtracking revives them as a set.
TREEWM_CACHE_LINE_LOOPS void PropagateFeature(SearchState* state, int f,
                                             const Interval& before) {
  const CompiledRequirements& a = *state->arena;
  const Interval& after = state->box.Get(f);
  const auto fs = static_cast<size_t>(f);
  if (after.hi < before.hi) {
    const auto list = a.watch_by_lo().of(fs);
    auto it = std::partition_point(list.begin(), list.end(), [&](const auto& w) {
      return w.bound < after.hi;
    });
    for (; it != list.end() && it->bound < before.hi; ++it) Kill(state, it->option);
  }
  if (after.lo > before.lo) {
    const auto list = a.watch_by_hi().of(fs);
    auto it = std::partition_point(list.begin(), list.end(), [&](const auto& w) {
      return w.bound <= before.lo;
    });
    for (; it != list.end() && it->bound <= after.lo; ++it) Kill(state, it->option);
  }
}

/// Box::Constrain plus watch propagation.
bool ConstrainAndPropagate(SearchState* state, int f, double lo, double hi) {
  const Interval before = state->box.Get(f);
  if (!state->box.Constrain(f, lo, hi)) return false;
  PropagateFeature(state, f, before);
  return true;
}

/// Box::ConstrainClosed plus watch propagation (initial domain/ball setup).
bool ConstrainClosedAndPropagate(SearchState* state, int f, double a, double b) {
  const Interval before = state->box.Get(f);
  if (!state->box.ConstrainClosed(f, a, b)) return false;
  PropagateFeature(state, f, before);
  return true;
}

/// Intersects the box with option `o`'s leaf box. `o` must be alive, and an
/// alive option's constraints each intersect the box individually; since
/// constraints touch distinct features they cannot invalidate each other,
/// so the application never fails.
void ApplyOption(SearchState* state, uint32_t o) {
  const CompiledRequirements& a = *state->arena;
  const auto cb = a.option_constraint_begin();
  const auto cf = a.constraint_feature();
  const auto clo = a.constraint_lo();
  const auto chi = a.constraint_hi();
  for (uint32_t c = cb[o]; c < cb[o + 1]; ++c) {
    const bool ok = ConstrainAndPropagate(state, cf[c], clo[c], chi[c]);
    assert(ok);
    (void)ok;  // discard ok: asserted above; options are pre-filtered to feasible
  }
}

void RevertTo(SearchState* state, size_t box_mark, size_t kill_mark) {
  state->box.RevertTo(box_mark);
  const auto oreq = state->arena->option_requirement();
  while (state->kill_trail.size() > kill_mark) {
    const uint32_t o = state->kill_trail.back();
    state->kill_trail.pop_back();
    state->option_alive[o] = 1;
    ++state->req_alive[oreq[o]];
  }
}

/// Depth-first search with dynamic fail-first requirement selection.
///
/// Branching order, node accounting and budget semantics replicate the
/// naive-rescan search exactly (proven in tests/test_forgery_batch.cc):
/// the selection scan reads the cached counters in requirement order with
/// the same first-minimum tie-break, forced-choice break, and lazy dead-end
/// detection (a requirement emptied by propagation is only noticed at the
/// next node's scan, exactly when the rescan would have noticed it), so
/// nodes_explored and every verdict are bit-identical to the per-instance
/// solver this engine replaced.
TREEWM_CACHE_LINE_LOOPS bool Search(SearchState* state) {
  const CompiledRequirements& a = *state->arena;
  const size_t num_reqs = a.num_requirements();
  if (state->num_assigned == num_reqs) return true;
  ++state->nodes;
  if (state->max_nodes != 0 && state->nodes > state->max_nodes) {
    state->budget_exhausted = true;
    return false;
  }

  // Pick the unassigned requirement with the fewest alive options — an O(m)
  // counter scan instead of the O(Σ options) compatibility rescan.
  size_t best_req = num_reqs;
  size_t best_count = SIZE_MAX;
  for (size_t r = 0; r < num_reqs; ++r) {
    if (state->assigned[r]) continue;
    const size_t count = state->req_alive[r];
    if (count == 0) return false;  // dead end: some tree has no feasible leaf
    if (count < best_count) {
      best_count = count;
      best_req = r;
      if (count == 1) break;  // forced choice; no better selection exists
    }
  }
  assert(best_req < num_reqs);

  state->assigned[best_req] = 1;
  ++state->num_assigned;
  const auto rb = a.req_option_begin();
  for (uint32_t o = rb[best_req]; o < rb[best_req + 1]; ++o) {
    if (!state->option_alive[o]) continue;
    const size_t box_mark = state->box.Mark();
    const size_t kill_mark = state->kill_trail.size();
    ApplyOption(state, o);
    if (Search(state)) return true;
    RevertTo(state, box_mark, kill_mark);
    if (state->budget_exhausted) break;
  }
  state->assigned[best_req] = 0;
  --state->num_assigned;
  return false;
}

/// Decides one anchor against a prepared arena. Does NOT validate the
/// witness — callers validate (scalar: one-row PatternHolds; batch: one
/// PatternHoldsBatch per label over every witness at once).
ForgeryOutcome SolveOnArena(const CompiledRequirements& arena,
                            std::span<const float> anchor, double epsilon,
                            double domain_lo, double domain_hi,
                            uint64_t max_nodes, SearchState* state) {
  state->Prepare(arena);
  state->max_nodes = max_nodes;

  ForgeryOutcome outcome;
  // Domain and ball constraints; propagation kills statically incompatible
  // options (the naive solver filters them out before branching).
  const size_t d = arena.num_features();
  for (size_t f = 0; f < d; ++f) {
    double lo = domain_lo;
    double hi = domain_hi;
    if (!anchor.empty()) {
      lo = std::max(lo, static_cast<double>(anchor[f]) - epsilon);
      hi = std::min(hi, static_cast<double>(anchor[f]) + epsilon);
    }
    if (lo > hi ||
        !ConstrainClosedAndPropagate(state, static_cast<int>(f), lo, hi)) {
      outcome.result = sat::SatResult::kUnsat;
      return outcome;
    }
  }
  for (size_t r = 0; r < arena.num_requirements(); ++r) {
    if (state->req_alive[r] == 0) {
      outcome.result = sat::SatResult::kUnsat;
      return outcome;
    }
  }

  const bool found = Search(state);
  outcome.nodes_explored = state->nodes;
  if (found) {
    outcome.witness = state->box.Witness(anchor);
    outcome.result = sat::SatResult::kSat;
  } else if (state->budget_exhausted) {
    outcome.result = sat::SatResult::kUnknown;
  } else {
    outcome.result = sat::SatResult::kUnsat;
  }
  return outcome;
}

Status ValidateQueryShape(const forest::RandomForest& forest,
                          const ForgeryQuery& query) {
  if (!query.anchor.empty() && query.anchor.size() != forest.num_features()) {
    return Status::InvalidArgument(
        StrFormat("anchor has %zu features, forest expects %zu",
                  query.anchor.size(), forest.num_features()));
  }
  return ValidateBallGeometry(query.epsilon, query.domain_lo, query.domain_hi);
}

/// One reusable workspace per thread: SolveBatch anchors land on pool
/// workers repeatedly, and Prepare() re-initializes without reallocating.
thread_local SearchState t_search_state;

/// Returns the cached arena for `label`, compiling it on first use and
/// verifying a pre-existing cache entry still matches the query.
Result<std::shared_ptr<const CompiledRequirements>> ArenaForLabel(
    const forest::RandomForest& forest, const ForgeryBatchQuery& query,
    int label, ForgeryArenaCache* cache) {
  std::shared_ptr<const CompiledRequirements>& slot =
      label > 0 ? cache->positive : cache->negative;
  if (slot == nullptr) {
    TREEWM_ASSIGN_OR_RETURN(
        slot, CompiledRequirements::Compile(forest, query.signature_bits, label));
    return slot;
  }
  if (slot->signature_bits() != query.signature_bits ||
      slot->target_label() != label ||
      slot->num_features() != forest.num_features()) {
    return Status::InvalidArgument(
        "forgery arena cache was compiled for a different query");
  }
  return slot;
}

}  // namespace

Result<ForgeryOutcome> ForgerySolver::Solve(const forest::RandomForest& forest,
                                            const ForgeryQuery& query) {
  TREEWM_RETURN_IF_ERROR(ValidateQueryShape(forest, query));
  TREEWM_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledRequirements> arena,
                          CompiledRequirements::Compile(
                              forest, query.signature_bits, query.target_label));
  return Solve(forest, *arena, query);
}

Result<ForgeryOutcome> ForgerySolver::Solve(const forest::RandomForest& forest,
                                            const CompiledRequirements& compiled,
                                            const ForgeryQuery& query) {
  if (compiled.signature_bits() != query.signature_bits ||
      compiled.target_label() != query.target_label ||
      compiled.num_features() != forest.num_features()) {
    return Status::InvalidArgument(
        "compiled requirements do not match the forgery query");
  }
  TREEWM_RETURN_IF_ERROR(ValidateQueryShape(forest, query));

  SearchState state;
  ForgeryOutcome outcome =
      SolveOnArena(compiled, query.anchor, query.epsilon, query.domain_lo,
                   query.domain_hi, query.max_nodes, &state);
  if (outcome.result == sat::SatResult::kSat) {
    outcome.validated = PatternHolds(forest, query.signature_bits,
                                     query.target_label, outcome.witness);
    if (!outcome.validated) {
      // Box::ConstrainClosed keeps every interval end on the float grid, so
      // a found box always holds a float witness inside every chosen leaf
      // box. A failure here is a solver bug: report it, never the forgery.
      return Status::Internal("forgery witness failed ensemble validation");
    }
  }
  return outcome;
}

Result<std::vector<ForgeryOutcome>> ForgerySolver::SolveBatch(
    const forest::RandomForest& forest, const ForgeryBatchQuery& query,
    const data::Dataset& anchors, ForgeryArenaCache* cache) {
  if (query.signature_bits.size() != forest.num_trees()) {
    return Status::InvalidArgument(
        StrFormat("signature has %zu bits but forest has %zu trees",
                  query.signature_bits.size(), forest.num_trees()));
  }
  if (anchors.num_features() != forest.num_features()) {
    return Status::InvalidArgument(
        StrFormat("anchors have %zu features, forest expects %zu",
                  anchors.num_features(), forest.num_features()));
  }
  TREEWM_RETURN_IF_ERROR(
      ValidateBallGeometry(query.epsilon, query.domain_lo, query.domain_hi));

  const size_t n = anchors.num_rows();
  std::vector<ForgeryOutcome> outcomes(n);
  if (n == 0) return outcomes;

  // One arena per target label present in the batch, shared across anchors
  // and threads (and across SolveBatch calls when the caller keeps `cache`).
  ForgeryArenaCache local_cache;
  ForgeryArenaCache* arenas = cache != nullptr ? cache : &local_cache;
  std::shared_ptr<const CompiledRequirements> positive;
  std::shared_ptr<const CompiledRequirements> negative;
  for (size_t i = 0; i < n; ++i) {
    if (anchors.Label(i) > 0 && positive == nullptr) {
      TREEWM_ASSIGN_OR_RETURN(positive,
                              ArenaForLabel(forest, query, +1, arenas));
    } else if (anchors.Label(i) < 0 && negative == nullptr) {
      TREEWM_ASSIGN_OR_RETURN(negative,
                              ArenaForLabel(forest, query, -1, arenas));
    }
  }

  // Fan anchors across the pool. Every anchor's search is independent and
  // deterministic, so the schedule cannot change outcomes.
  ParallelFor(query.pool, n, [&](size_t i) {
    const CompiledRequirements& arena =
        anchors.Label(i) > 0 ? *positive : *negative;
    outcomes[i] =
        SolveOnArena(arena, anchors.Row(i), query.epsilon, query.domain_lo,
                     query.domain_hi, query.max_nodes_per_anchor,
                     &t_search_state);
  });

  // Charlie's acceptance test, batched: one flat-engine vote-matrix query
  // per label over every witness found, instead of a scalar walk per anchor.
  for (int label : {data::kPositive, data::kNegative}) {
    std::vector<size_t> sat_rows;
    for (size_t i = 0; i < n; ++i) {
      if (outcomes[i].result == sat::SatResult::kSat &&
          anchors.Label(i) == label) {
        sat_rows.push_back(i);
      }
    }
    if (sat_rows.empty()) continue;
    data::Dataset witnesses(forest.num_features());
    witnesses.Reserve(sat_rows.size());
    for (size_t i : sat_rows) {
      TREEWM_RETURN_IF_ERROR(witnesses.AddRow(outcomes[i].witness, label));
    }
    const std::vector<uint8_t> holds =
        PatternHoldsBatch(forest, query.signature_bits, label, witnesses);
    for (size_t j = 0; j < sat_rows.size(); ++j) {
      if (holds[j] == 0) {
        return Status::Internal("forgery witness failed ensemble validation");
      }
      outcomes[sat_rows[j]].validated = true;
    }
  }
  return outcomes;
}

bool ForgerySolver::PatternHolds(const forest::RandomForest& forest,
                                 const std::vector<uint8_t>& signature_bits,
                                 int target_label, std::span<const float> witness) {
  if (witness.size() != forest.num_features()) return false;
  data::Dataset one(forest.num_features());
  Status st = one.AddRow(witness, data::kPositive);  // placeholder label
  if (!st.ok()) return false;
  const std::vector<uint8_t> holds =
      PatternHoldsBatch(forest, signature_bits, target_label, one);
  return holds.size() == 1 && holds[0] != 0;
}

std::vector<uint8_t> ForgerySolver::PatternHoldsBatch(
    const forest::RandomForest& forest, const std::vector<uint8_t>& signature_bits,
    int target_label, const data::Dataset& witnesses) {
  std::vector<uint8_t> out(witnesses.num_rows(), 0);
  if (signature_bits.size() != forest.num_trees() ||
      witnesses.num_features() != forest.num_features() || out.empty()) {
    return out;
  }
  // One batched query answers every (witness, tree) vote; the per-row check
  // is then a linear scan of the matrix row against the required pattern.
  const predict::VoteMatrix votes = forest.PredictAllVotes(witnesses);
  std::vector<int8_t> required(signature_bits.size());
  for (size_t t = 0; t < signature_bits.size(); ++t) {
    required[t] = static_cast<int8_t>(RequiredLabel(target_label, signature_bits[t]));
  }
  for (size_t i = 0; i < witnesses.num_rows(); ++i) {
    const std::span<const int8_t> row = votes.row(i);
    bool holds = true;
    for (size_t t = 0; t < required.size(); ++t) {
      if (row[t] != required[t]) {
        holds = false;
        break;
      }
    }
    out[i] = holds ? 1 : 0;
  }
  return out;
}

}  // namespace treewm::smt
