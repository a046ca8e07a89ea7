// Property tests for the multi-anchor forgery solve engine: SolveBatch must
// be bit-identical to the scalar Solve at every thread count, and the
// watched-option search over the CompiledRequirements arena must explore
// exactly the same tree as the naive rescan solver it replaced (same
// verdicts, same node counts, same witnesses).

#include "smt/forgery_solver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/fault_injection.h"
#include "core/signature.h"
#include "data/synthetic.h"
#include "pool_of_width.h"
#include "smt/compiled_requirements.h"
#include "smt/tree_constraints.h"

namespace treewm::smt {
namespace {

using tree::DecisionTree;
using tree::TreeNode;

// ---------------------------------------------------------------------------
// Naive-rescan reference: the pre-arena solver, kept verbatim as the ground
// truth the watched-option engine is measured against. Every node re-scans
// all leaf options of all unassigned trees to pick the fail-first
// requirement; the production engine caches those counts and maintains them
// through the per-feature watch lists.

struct NaiveState {
  Box box;
  std::vector<TreeRequirement> requirements;
  std::vector<uint8_t> assigned;
  size_t num_assigned = 0;
  uint64_t nodes = 0;
  uint64_t max_nodes = 0;
  bool budget_exhausted = false;

  explicit NaiveState(size_t num_features) : box(num_features) {}
};

bool NaiveApplyOption(Box* box, const LeafOption& option) {
  const size_t mark = box->Mark();
  for (const auto& c : option.constraints) {
    if (!box->Constrain(c.feature, c.lo, c.hi)) {
      box->RevertTo(mark);
      return false;
    }
  }
  return true;
}

bool NaiveSearch(NaiveState* state) {
  if (state->num_assigned == state->requirements.size()) return true;
  ++state->nodes;
  if (state->max_nodes != 0 && state->nodes > state->max_nodes) {
    state->budget_exhausted = true;
    return false;
  }
  size_t best_req = state->requirements.size();
  size_t best_count = SIZE_MAX;
  for (size_t r = 0; r < state->requirements.size(); ++r) {
    if (state->assigned[r]) continue;
    size_t count = 0;
    for (const LeafOption& option : state->requirements[r].options) {
      if (OptionCompatible(state->box, option)) {
        ++count;
        if (count >= best_count) break;
      }
    }
    if (count == 0) return false;
    if (count < best_count) {
      best_count = count;
      best_req = r;
      if (count == 1) break;
    }
  }
  state->assigned[best_req] = 1;
  ++state->num_assigned;
  for (const LeafOption& option : state->requirements[best_req].options) {
    if (!OptionCompatible(state->box, option)) continue;
    const size_t mark = state->box.Mark();
    if (!NaiveApplyOption(&state->box, option)) continue;
    if (NaiveSearch(state)) return true;
    state->box.RevertTo(mark);
    if (state->budget_exhausted) break;
  }
  state->assigned[best_req] = 0;
  --state->num_assigned;
  return false;
}

ForgeryOutcome NaiveSolve(const forest::RandomForest& forest,
                          const ForgeryQuery& query) {
  NaiveState state(forest.num_features());
  state.requirements =
      BuildTreeRequirements(forest, query.signature_bits, query.target_label)
          .MoveValue();
  state.max_nodes = query.max_nodes;
  for (size_t f = 0; f < forest.num_features(); ++f) {
    double lo = query.domain_lo;
    double hi = query.domain_hi;
    if (!query.anchor.empty()) {
      lo = std::max(lo, static_cast<double>(query.anchor[f]) - query.epsilon);
      hi = std::min(hi, static_cast<double>(query.anchor[f]) + query.epsilon);
    }
    if (lo > hi || !state.box.ConstrainClosed(static_cast<int>(f), lo, hi)) {
      ForgeryOutcome outcome;
      outcome.result = sat::SatResult::kUnsat;
      return outcome;
    }
  }
  FilterOptions(state.box, &state.requirements);
  for (const TreeRequirement& req : state.requirements) {
    if (req.options.empty()) {
      ForgeryOutcome outcome;
      outcome.result = sat::SatResult::kUnsat;
      return outcome;
    }
  }
  state.assigned.assign(state.requirements.size(), 0);
  const bool found = NaiveSearch(&state);
  ForgeryOutcome outcome;
  outcome.nodes_explored = state.nodes;
  if (found) {
    outcome.witness = state.box.Witness(query.anchor);
    outcome.result = sat::SatResult::kSat;
  } else if (state.budget_exhausted) {
    outcome.result = sat::SatResult::kUnknown;
  } else {
    outcome.result = sat::SatResult::kUnsat;
  }
  return outcome;
}

// ---------------------------------------------------------------------------

struct Fixture {
  data::Dataset data;
  forest::RandomForest forest;
};

Fixture TrainedFixture(uint64_t seed, size_t num_trees, size_t rows = 300,
                       size_t features = 5) {
  auto data = data::synthetic::MakeBlobs(seed, rows, features, 1.2);
  forest::ForestConfig config;
  config.num_trees = num_trees;
  config.seed = seed + 1;
  auto forest = forest::RandomForest::Fit(data, {}, config).MoveValue();
  return Fixture{std::move(data), std::move(forest)};
}

ForgeryQuery ScalarQueryFor(const ForgeryBatchQuery& shared,
                            const data::Dataset& anchors, size_t row) {
  ForgeryQuery q;
  q.signature_bits = shared.signature_bits;
  q.target_label = anchors.Label(row);
  q.anchor.assign(anchors.Row(row).begin(), anchors.Row(row).end());
  q.epsilon = shared.epsilon;
  q.domain_lo = shared.domain_lo;
  q.domain_hi = shared.domain_hi;
  q.max_nodes = shared.max_nodes_per_anchor;
  return q;
}

void ExpectSameOutcome(const ForgeryOutcome& a, const ForgeryOutcome& b,
                       const char* what, size_t row) {
  EXPECT_EQ(a.result, b.result) << what << " row " << row;
  EXPECT_EQ(a.nodes_explored, b.nodes_explored) << what << " row " << row;
  EXPECT_EQ(a.witness, b.witness) << what << " row " << row;
}

TEST(SolveBatchTest, MatchesScalarSolveAtEveryThreadCount) {
  Fixture fx = TrainedFixture(11, 10);
  Rng rng(3);
  // Mixed-label anchor block (both arenas exercised in one batch).
  std::vector<size_t> indices;
  for (size_t i = 0; i < 30; ++i) indices.push_back(i * 7 % fx.data.num_rows());
  const data::Dataset anchors = fx.data.Subset(indices);

  size_t sat_seen = 0;
  size_t unsat_seen = 0;
  // Sparse signatures are satisfiable on this fixture, dense ones are not —
  // sweep both so the equivalence covers witnesses AND deep UNSAT searches.
  for (double ones_fraction : {0.3, 0.5}) {
    for (double epsilon : {0.1, 0.4}) {
      const auto fake = core::Signature::Random(10, ones_fraction, &rng);
      ForgeryBatchQuery shared;
      shared.signature_bits = fake.bits();
      shared.epsilon = epsilon;
      shared.max_nodes_per_anchor = 50000;

      std::vector<ForgeryOutcome> scalar;
      for (size_t i = 0; i < anchors.num_rows(); ++i) {
        scalar.push_back(
            ForgerySolver::Solve(fx.forest, ScalarQueryFor(shared, anchors, i))
                .MoveValue());
      }
      std::unique_ptr<ThreadPool> owned;
      for (size_t threads : {1u, 2u, 5u}) {
        shared.pool = PoolOfWidth(threads, &owned);
        auto batch =
            ForgerySolver::SolveBatch(fx.forest, shared, anchors).MoveValue();
        ASSERT_EQ(batch.size(), anchors.num_rows());
        for (size_t i = 0; i < batch.size(); ++i) {
          ExpectSameOutcome(batch[i], scalar[i], "threads", i);
          EXPECT_EQ(batch[i].validated, scalar[i].validated) << "row " << i;
          if (batch[i].result == sat::SatResult::kSat) {
            EXPECT_TRUE(batch[i].validated) << "row " << i;
            ++sat_seen;
          } else if (batch[i].result == sat::SatResult::kUnsat) {
            ++unsat_seen;
          }
        }
      }
    }
  }
  EXPECT_GT(sat_seen, 0u) << "sweep never produced a witness — vacuous test";
  EXPECT_GT(unsat_seen, 0u) << "sweep never hit UNSAT — vacuous test";
}

TEST(SolveBatchTest, SerialQueryNeverSubmitsToAPool) {
  // pool = nullptr runs every anchor on the caller. Every ThreadPool::Submit
  // passes the thread_pool.submit.reject fault site; armed at probability 0
  // it only counts.
  Fixture fx = TrainedFixture(11, 10);
  Rng rng(4);
  std::vector<size_t> indices;
  for (size_t i = 0; i < 6; ++i) indices.push_back(i * 11 % fx.data.num_rows());
  const data::Dataset anchors = fx.data.Subset(indices);
  ForgeryBatchQuery shared;
  shared.signature_bits = core::Signature::Random(10, 0.3, &rng).bits();
  shared.epsilon = 0.4;
  shared.max_nodes_per_anchor = 50000;
  shared.pool = nullptr;
  FaultSpec count_only;
  count_only.probability = 0.0;
  ScopedFault submits("thread_pool.submit.reject", count_only);
  auto batch = ForgerySolver::SolveBatch(fx.forest, shared, anchors);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch.value().size(), anchors.num_rows());
  EXPECT_EQ(submits.hits(), 0u);
}

TEST(WatchedSearchTest, MatchesNaiveRescanOnRandomizedEnsembles) {
  Rng rng(29);
  size_t sat_seen = 0;
  size_t unsat_seen = 0;
  for (uint64_t seed : {5u, 17u, 23u}) {
    Fixture fx = TrainedFixture(seed, 8);
    for (double epsilon : {0.05, 0.2, 0.5, 1.0}) {
      for (double ones_fraction : {0.3, 0.5}) {
        for (int trial = 0; trial < 2; ++trial) {
          const auto fake = core::Signature::Random(8, ones_fraction, &rng);
          ForgeryQuery query;
          query.signature_bits = fake.bits();
          query.target_label = trial % 2 == 0 ? +1 : -1;
          const size_t row = rng.UniformInt(fx.data.num_rows());
          query.anchor.assign(fx.data.Row(row).begin(), fx.data.Row(row).end());
          query.epsilon = epsilon;
          query.max_nodes = 20000;
          const ForgeryOutcome naive = NaiveSolve(fx.forest, query);
          const ForgeryOutcome watched =
              ForgerySolver::Solve(fx.forest, query).MoveValue();
          ExpectSameOutcome(watched, naive, "seed/eps", row);
          if (naive.result == sat::SatResult::kSat) ++sat_seen;
          if (naive.result == sat::SatResult::kUnsat) ++unsat_seen;
        }
      }
    }
  }
  EXPECT_GT(sat_seen, 0u) << "sweep never produced a witness — vacuous test";
  EXPECT_GT(unsat_seen, 0u) << "sweep never hit UNSAT — vacuous test";
}

TEST(WatchedSearchTest, MatchesNaiveWithoutAnchor) {
  // Unconstrained-ball queries (the scalar-only entry shape).
  Fixture fx = TrainedFixture(41, 6);
  Rng rng(43);
  for (int trial = 0; trial < 6; ++trial) {
    const auto fake = core::Signature::Random(6, 0.5, &rng);
    ForgeryQuery query;
    query.signature_bits = fake.bits();
    query.target_label = trial % 2 == 0 ? +1 : -1;
    query.max_nodes = 20000;
    const ForgeryOutcome naive = NaiveSolve(fx.forest, query);
    const ForgeryOutcome watched = ForgerySolver::Solve(fx.forest, query).MoveValue();
    ExpectSameOutcome(watched, naive, "trial", static_cast<size_t>(trial));
  }
}

TEST(SolveBatchTest, BudgetExhaustionIsIdenticalToScalar) {
  Fixture fx = TrainedFixture(31, 12, 400, 6);
  Rng rng(7);
  const auto fake = core::Signature::Random(12, 0.5, &rng);
  ForgeryBatchQuery shared;
  shared.signature_bits = fake.bits();
  shared.epsilon = 0.3;
  shared.max_nodes_per_anchor = 4;  // absurdly small: most searches truncate

  std::vector<size_t> indices;
  for (size_t i = 0; i < 20; ++i) indices.push_back(i);
  const data::Dataset anchors = fx.data.Subset(indices);
  const auto batch = ForgerySolver::SolveBatch(fx.forest, shared, anchors).MoveValue();
  size_t unknown = 0;
  for (size_t i = 0; i < anchors.num_rows(); ++i) {
    const auto scalar =
        ForgerySolver::Solve(fx.forest, ScalarQueryFor(shared, anchors, i))
            .MoveValue();
    ExpectSameOutcome(batch[i], scalar, "budget", i);
    if (batch[i].result == sat::SatResult::kUnknown) {
      ++unknown;
      EXPECT_EQ(batch[i].nodes_explored, shared.max_nodes_per_anchor + 1);
    }
  }
  EXPECT_GT(unknown, 0u) << "budget never bound — test parameters too loose";
}

TEST(SolveBatchTest, AllUnsatBatchProducesNoWitnesses) {
  // Stump A: +1 iff x0 <= 0.3. Stump B: +1 iff x0 > 0.7. Both must be +1:
  // impossible for every anchor.
  auto a = DecisionTree::FromNodes({TreeNode{0, 0.3f, 1, 2, 0},
                                    TreeNode{-1, 0, -1, -1, +1},
                                    TreeNode{-1, 0, -1, -1, -1}},
                                   1)
               .MoveValue();
  auto b = DecisionTree::FromNodes({TreeNode{0, 0.7f, 1, 2, 0},
                                    TreeNode{-1, 0, -1, -1, -1},
                                    TreeNode{-1, 0, -1, -1, +1}},
                                   1)
               .MoveValue();
  auto ensemble = forest::RandomForest::FromTrees({a, b}).MoveValue();
  data::Dataset anchors(1);
  for (float x : {0.1f, 0.4f, 0.8f}) {
    ASSERT_TRUE(anchors.AddRow(std::vector<float>{x}, +1).ok());
  }
  ForgeryBatchQuery shared;
  shared.signature_bits = {0, 0};
  shared.epsilon = 1.0;
  const auto batch = ForgerySolver::SolveBatch(ensemble, shared, anchors).MoveValue();
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& outcome : batch) {
    EXPECT_EQ(outcome.result, sat::SatResult::kUnsat);
    EXPECT_TRUE(outcome.witness.empty());
    EXPECT_FALSE(outcome.validated);
  }
  // The mirrored query (-1 from both trees) is satisfiable in (0.3, 0.7].
  data::Dataset negative(1);
  ASSERT_TRUE(negative.AddRow(std::vector<float>{0.5f}, -1).ok());
  const auto neg = ForgerySolver::SolveBatch(ensemble, shared, negative).MoveValue();
  ASSERT_EQ(neg[0].result, sat::SatResult::kSat);
  EXPECT_TRUE(neg[0].validated);
}

TEST(SolveBatchTest, EmptyAnchorsReturnEmptyOutcomes) {
  Fixture fx = TrainedFixture(19, 4);
  ForgeryBatchQuery shared;
  shared.signature_bits = std::vector<uint8_t>(4, 0);
  EXPECT_TRUE(ForgerySolver::SolveBatch(fx.forest, shared, data::Dataset(5))
                  .MoveValue()
                  .empty());
}

TEST(SolveBatchTest, ValidatesInputs) {
  Fixture fx = TrainedFixture(19, 4);
  data::Dataset anchors = fx.data.Subset({0, 1});
  ForgeryBatchQuery shared;
  shared.signature_bits = std::vector<uint8_t>(3, 0);  // wrong length
  EXPECT_FALSE(ForgerySolver::SolveBatch(fx.forest, shared, anchors).ok());
  shared.signature_bits = std::vector<uint8_t>(4, 0);
  shared.epsilon = -0.5;
  EXPECT_FALSE(ForgerySolver::SolveBatch(fx.forest, shared, anchors).ok());
  shared.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(ForgerySolver::SolveBatch(fx.forest, shared, anchors).ok());
  shared.epsilon = 0.5;
  shared.domain_lo = 1.0;
  shared.domain_hi = 0.0;
  EXPECT_FALSE(ForgerySolver::SolveBatch(fx.forest, shared, anchors).ok());
  shared.domain_hi = 1.0;
  data::Dataset bad(fx.forest.num_features() + 1);
  EXPECT_FALSE(ForgerySolver::SolveBatch(fx.forest, shared, bad).ok());
}

TEST(ValidateBallGeometryTest, DefinesTheSolverEpsilonDomain) {
  EXPECT_TRUE(ValidateBallGeometry(0.0, 0.0, 1.0).ok());   // exact match is legal
  EXPECT_TRUE(ValidateBallGeometry(5.0, 0.0, 1.0).ok());   // non-binding ball
  EXPECT_TRUE(ValidateBallGeometry(1.0, 0.5, 0.5).ok());   // degenerate domain
  EXPECT_FALSE(ValidateBallGeometry(-0.1, 0.0, 1.0).ok());
  EXPECT_FALSE(
      ValidateBallGeometry(std::numeric_limits<double>::quiet_NaN(), 0.0, 1.0).ok());
  EXPECT_FALSE(ValidateBallGeometry(0.5, 1.0, 0.0).ok());
  EXPECT_FALSE(
      ValidateBallGeometry(0.5, std::numeric_limits<double>::quiet_NaN(), 1.0).ok());
}

TEST(CompiledRequirementsTest, ArenaReuseMatchesFreshCompile) {
  Fixture fx = TrainedFixture(53, 8);
  Rng rng(59);
  const auto fake = core::Signature::Random(8, 0.5, &rng);
  const auto arena =
      CompiledRequirements::Compile(fx.forest, fake.bits(), +1).MoveValue();
  EXPECT_EQ(arena->num_requirements(), fx.forest.num_trees());
  EXPECT_EQ(arena->num_features(), fx.forest.num_features());

  for (size_t row : {0u, 5u, 11u}) {
    ForgeryQuery query;
    query.signature_bits = fake.bits();
    query.target_label = +1;
    query.anchor.assign(fx.data.Row(row).begin(), fx.data.Row(row).end());
    query.epsilon = 0.3;
    query.max_nodes = 20000;
    const auto fresh = ForgerySolver::Solve(fx.forest, query).MoveValue();
    const auto reused = ForgerySolver::Solve(fx.forest, *arena, query).MoveValue();
    ExpectSameOutcome(reused, fresh, "arena", row);
  }

  // A query that disagrees with the arena is rejected, not silently solved.
  ForgeryQuery mismatched;
  mismatched.signature_bits = fake.bits();
  mismatched.target_label = -1;
  EXPECT_FALSE(ForgerySolver::Solve(fx.forest, *arena, mismatched).ok());
}

TEST(CompiledRequirementsTest, LayoutIsCoherent) {
  Fixture fx = TrainedFixture(61, 5);
  Rng rng(67);
  const auto fake = core::Signature::Random(5, 0.5, &rng);
  const auto arena =
      CompiledRequirements::Compile(fx.forest, fake.bits(), +1).MoveValue();

  const auto rb = arena->req_option_begin();
  ASSERT_EQ(rb.size(), arena->num_requirements() + 1);
  EXPECT_EQ(rb.back(), arena->num_options());
  const auto cb = arena->option_constraint_begin();
  ASSERT_EQ(cb.size(), arena->num_options() + 1);
  EXPECT_EQ(cb.back(), arena->num_constraints());

  // Constraint spans are feature-sorted with one entry per feature.
  for (size_t o = 0; o < arena->num_options(); ++o) {
    for (uint32_t c = cb[o]; c + 1 < cb[o + 1]; ++c) {
      EXPECT_LT(arena->constraint_feature()[c], arena->constraint_feature()[c + 1]);
    }
  }
  // The watch index covers every constraint exactly once.
  const auto wb = arena->watch_begin();
  ASSERT_EQ(wb.size(), arena->num_features() + 1);
  EXPECT_EQ(wb.back(), arena->num_constraints());
  std::vector<uint8_t> seen(arena->num_constraints(), 0);
  for (size_t f = 0; f < arena->num_features(); ++f) {
    for (uint32_t k = wb[f]; k < wb[f + 1]; ++k) {
      const uint32_t c = arena->watch_constraint()[k];
      EXPECT_EQ(arena->constraint_feature()[c], static_cast<int32_t>(f));
      EXPECT_EQ(arena->watch_option()[k],
                [&] {  // the option owning constraint c
                  uint32_t o = 0;
                  while (cb[o + 1] <= c) ++o;
                  return o;
                }());
      EXPECT_EQ(seen[c], 0);
      seen[c] = 1;
    }
  }
}

TEST(ForgeryArenaCacheTest, ReusesArenasAndRejectsStaleOnes) {
  Fixture fx = TrainedFixture(71, 6);
  Rng rng(73);
  const auto fake = core::Signature::Random(6, 0.5, &rng);
  // Two anchors per label, so both cache slots are exercised.
  std::vector<size_t> indices;
  for (int label : {+1, -1}) {
    size_t taken = 0;
    for (size_t i = 0; i < fx.data.num_rows() && taken < 2; ++i) {
      if (fx.data.Label(i) == label) {
        indices.push_back(i);
        ++taken;
      }
    }
  }
  ASSERT_EQ(indices.size(), 4u);
  const data::Dataset anchors = fx.data.Subset(indices);

  ForgeryBatchQuery shared;
  shared.signature_bits = fake.bits();
  shared.epsilon = 0.3;
  shared.max_nodes_per_anchor = 20000;

  ForgeryArenaCache cache;
  const auto first =
      ForgerySolver::SolveBatch(fx.forest, shared, anchors, &cache).MoveValue();
  const CompiledRequirements* pos = cache.positive.get();
  const CompiledRequirements* neg = cache.negative.get();
  const auto second =
      ForgerySolver::SolveBatch(fx.forest, shared, anchors, &cache).MoveValue();
  EXPECT_EQ(cache.positive.get(), pos);  // compiled once, reused
  EXPECT_EQ(cache.negative.get(), neg);
  for (size_t i = 0; i < first.size(); ++i) {
    ExpectSameOutcome(first[i], second[i], "cache", i);
  }

  // A cache carried over to a different signature must fail loudly.
  const auto other = core::Signature::Random(6, 0.5, &rng);
  ASSERT_NE(other.bits(), fake.bits());
  shared.signature_bits = other.bits();
  EXPECT_FALSE(ForgerySolver::SolveBatch(fx.forest, shared, anchors, &cache).ok());

  // So must an arena sitting in the wrong label slot.
  shared.signature_bits = fake.bits();
  ForgeryArenaCache swapped;
  swapped.negative = cache.positive;
  EXPECT_FALSE(
      ForgerySolver::SolveBatch(fx.forest, shared, anchors, &swapped).ok());
}

}  // namespace
}  // namespace treewm::smt
