#include "predict/batch_predictor.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

#include "common/thread_pool.h"

namespace treewm::predict {

namespace {

/// One traversal step from byte-scaled arena entry rn (>= 0), over a row
/// pre-transformed into FloatKey space: `key <= threshold_key` (unsigned) is
/// exactly the scalar paths' `x <= v`, so key comparison preserves bit-exact
/// routing (see FloatKey for the NaN contract). One 8-byte load yields
/// feature and threshold key together; the two pre-scaled child words load
/// OFF the critical path and a register cmov picks the taken one, so the
/// dependency chain is node-load -> key-load -> cmp -> cmov, with no float
/// unit, no shift and no sign-extend in the chain (little-endian layout, as
/// everywhere treewm runs).
inline int64_t Step(const uint32_t* xk, int64_t rn, const char* nodes) {
  uint64_t ft;
  int64_t left, right;
  std::memcpy(&ft, nodes + rn, 8);
  std::memcpy(&left, nodes + rn + 8, 8);
  std::memcpy(&right, nodes + rn + 16, 8);
  const uint32_t key = xk[static_cast<uint32_t>(ft)];
  return key > static_cast<uint32_t>(ft >> 32) ? right : left;
}

/// Walks one row from entry `rn` (>= 0) to its leaf payload index.
inline int64_t WalkFrom(const uint32_t* xk, int64_t rn, const char* nodes) {
  while (rn >= 0) rn = Step(xk, rn, nodes);
  return ~rn;
}

/// Transforms rows [r0, r1) into FloatKey space — one linear pass whose cost
/// is amortized over every tree of the ensemble traversing the block. Each
/// row occupies stride + 1 entries: its feature keys followed by its
/// block-relative row id, so a traversal lane can recover the row from its
/// key offset alone. The buffer is a grow-only thread-local scratch: blocks
/// run sequentially on each worker, so reuse is safe and repeated batch
/// calls skip the (large) per-call allocation.
const uint32_t* MakeRowKeys(const data::Dataset& data, size_t r0, size_t r1) {
  static thread_local std::vector<uint32_t> scratch;
  const size_t stride = data.num_features();
  const float* base = data.values().data() + r0 * stride;
  if (scratch.size() < (r1 - r0) * (stride + 1)) {
    scratch.resize((r1 - r0) * (stride + 1));
  }
  size_t o = 0;
  for (size_t r = 0; r < r1 - r0; ++r) {
    for (size_t j = 0; j < stride; ++j) {
      scratch[o++] = FloatKey(base[r * stride + j]);
    }
    scratch[o++] = static_cast<uint32_t>(r);
  }
  return scratch.data();
}

/// Rows traversed concurrently per tree. The walk is latency-bound (every
/// step is a dependent load), so several independent chains keep the load
/// ports busy while each lane's chain waits. A lane is two registers: the
/// arena cursor and the row's key pointer.
constexpr size_t kLanes = 6;

/// Streams trees [t0, t1) over rows [r0, r1), invoking fn(t, row, leaf) with
/// t ascending in the outer loop — per-row visit order is ascending tree
/// order, which regression accumulation relies on for bit-exactness (per-row
/// state is independent, so row completion order within a tree is free).
///
/// kLanes rows descend the tree concurrently; the moment a lane reaches its
/// leaf it emits and is refilled with the block's next row, so — unlike a
/// fixed row-quad — no lane idles behind the deepest row of its group. The
/// refill branch is taken once per ~depth steps and predicts well.
/// `block_keys` is the MakeRowKeys image of rows [r0, r1); a lane recovers
/// its row id from the trailing entry of its key row.
template <typename LeafFn>
inline void TraverseTile(const FlatEnsemble& e, const uint32_t* block_keys,
                         size_t stride, size_t r0, size_t r1, size_t t0,
                         size_t t1, const LeafFn& fn) {
  const char* nodes = reinterpret_cast<const char*>(e.nodes());
  const size_t stride1 = stride + 1;
  const size_t num_rows = r1 - r0;
  for (size_t t = t0; t < t1; ++t) {
    const int64_t entry = e.root(t);
    if (entry < 0) {  // single-leaf tree: every row lands on the same leaf
      for (size_t r = r0; r < r1; ++r) fn(t, r, ~entry);
      continue;
    }

    int64_t cursor[kLanes];
    const uint32_t* xk[kLanes];
    size_t next = 0;  // next unstarted row, relative to r0
    size_t filled = 0;
    for (size_t l = 0; l < kLanes; ++l) xk[l] = nullptr;
    for (; filled < kLanes && next < num_rows; ++filled, ++next) {
      cursor[filled] = entry;
      xk[filled] = block_keys + next * stride1;
    }

    // Steady state: all lanes hold live rows. Stepping and leaf handling
    // stay in separate loops — fusing them serializes the chains.
    while (filled == kLanes) {
      for (size_t l = 0; l < kLanes; ++l) {
        cursor[l] = Step(xk[l], cursor[l], nodes);
      }
      for (size_t l = 0; l < kLanes; ++l) {
        if (cursor[l] < 0) {
          fn(t, r0 + xk[l][stride], ~cursor[l]);
          if (next < num_rows) {
            cursor[l] = entry;
            xk[l] = block_keys + next * stride1;
            ++next;
          } else {
            xk[l] = nullptr;
            filled = l;  // any value != kLanes exits the loop
          }
        }
      }
    }

    // Drain: finish the remaining live lanes one at a time.
    for (size_t l = 0; l < kLanes; ++l) {
      if (xk[l] != nullptr) {
        fn(t, r0 + xk[l][stride], WalkFrom(xk[l], cursor[l], nodes));
      }
    }
  }
}

// --------------------------------------------------------------------------
// Execution planning.
// --------------------------------------------------------------------------

/// Resolved execution shape for one batch call: pool + row-block geometry.
struct Plan {
  ThreadPool* pool = nullptr;                // nullptr = run inline
  std::unique_ptr<ThreadPool> local_pool;    // owned when num_threads > 1
  size_t row_block = 1;
  size_t num_blocks = 0;
};

Plan MakePlan(const BatchOptions& options, size_t num_rows) {
  Plan plan;
  if (options.num_threads == 0) {
    plan.pool = &ThreadPool::Global();
  } else if (options.num_threads > 1) {
    plan.local_pool = std::make_unique<ThreadPool>(options.num_threads);
    plan.pool = plan.local_pool.get();
  }
  size_t row_block = options.row_block;
  if (row_block == 0) {
    // Auto: a handful of blocks per worker balances load while loading each
    // tree's arena segment as few times as possible (each block streams the
    // whole ensemble once). Execution that will run inline — serial pools,
    // or a caller already on one of this pool's workers (nested
    // ParallelFor) — gets one block = pure tree-major traversal.
    const size_t workers =
        plan.pool != nullptr && !plan.pool->OnWorkerThread()
            ? plan.pool->num_threads()
            : 1;
    const size_t target_blocks = workers == 1 ? 1 : workers * 4;
    row_block = std::max<size_t>(64, (num_rows + target_blocks - 1) / target_blocks);
  }
  plan.row_block = std::max<size_t>(1, row_block);
  plan.num_blocks = (num_rows + plan.row_block - 1) / plan.row_block;
  return plan;
}

/// Runs fn(block_index, row0, row1) over the plan's row blocks. Blocks touch
/// disjoint rows, so any schedule yields identical results.
template <typename BlockFn>
void RunPlan(const Plan& plan, size_t num_rows, const BlockFn& fn) {
  ParallelFor(plan.pool, plan.num_blocks, [&](size_t b) {
    fn(b, b * plan.row_block, std::min(num_rows, (b + 1) * plan.row_block));
  });
}

// --------------------------------------------------------------------------
// Method bodies.
// --------------------------------------------------------------------------

std::vector<int> PredictLabelsImpl(const FlatEnsemble& e, size_t m,
                                   const BatchOptions& options,
                                   const data::Dataset& dataset) {
  const int8_t* labels = e.leaf_labels();
  std::vector<int> out(dataset.num_rows());
  const Plan plan = MakePlan(options, dataset.num_rows());
  RunPlan(plan, dataset.num_rows(), [&](size_t, size_t r0, size_t r1) {
    const uint32_t* keys = MakeRowKeys(dataset, r0, r1);
    const size_t stride = dataset.num_features();
    std::vector<int32_t> votes(r1 - r0, 0);
    for (size_t tb = 0; tb < m; tb += options.tree_block) {
      TraverseTile(e, keys, stride, r0, r1, tb, std::min(m, tb + options.tree_block),
                   [&](size_t, size_t r, int64_t leaf) { votes[r - r0] += labels[leaf]; });
    }
    for (size_t r = r0; r < r1; ++r) {
      out[r] = votes[r - r0] >= 0 ? data::kPositive : data::kNegative;
    }
  });
  return out;
}

VoteMatrix PredictAllVotesImpl(const FlatEnsemble& e, size_t m,
                               const BatchOptions& options,
                               const data::Dataset& dataset) {
  const int8_t* labels = e.leaf_labels();
  VoteMatrix out(dataset.num_rows(), m);
  const Plan plan = MakePlan(options, dataset.num_rows());
  RunPlan(plan, dataset.num_rows(), [&](size_t, size_t r0, size_t r1) {
    const uint32_t* keys = MakeRowKeys(dataset, r0, r1);
    const size_t stride = dataset.num_features();
    int8_t* base = out.mutable_row(0);
    const size_t rows = r1 - r0;
    // Per tree: emit into a 1-byte-per-row L1 stage (the same cheap store
    // the walk already pays in the vote-count paths), then scatter the
    // stage into the matrix column with a tight strided-store loop. Strided
    // STORES retire off the critical path; the row-wise transpose of a full
    // tree-major stage (strided byte-GATHER loads) measured ~20% slower
    // end-to-end, and direct strided emit (r * m + t inside the walk)
    // measured no better than this split while complicating the emit.
    static thread_local std::vector<int8_t> stage_storage;  // grow-only
    if (stage_storage.size() < rows) stage_storage.resize(rows);
    // Hot-loop capture must be the raw pointer: indexing the thread_local
    // vector inside the emit lambda re-reads TLS every leaf.
    int8_t* const stage = stage_storage.data();
    for (size_t t = 0; t < m; ++t) {
      TraverseTile(e, keys, stride, r0, r1, t, t + 1,
                   [&](size_t, size_t r, int64_t leaf) { stage[r - r0] = labels[leaf]; });
      int8_t* dst = base + r0 * m + t;
      for (size_t i = 0; i < rows; ++i) dst[i * m] = stage[i];
    }
  });
  return out;
}

double LabelAccuracyImpl(const FlatEnsemble& e, size_t m,
                         const BatchOptions& options,
                         const data::Dataset& dataset) {
  const int8_t* labels = e.leaf_labels();
  const Plan plan = MakePlan(options, dataset.num_rows());
  std::vector<size_t> block_correct(plan.num_blocks, 0);
  RunPlan(plan, dataset.num_rows(), [&](size_t b, size_t r0, size_t r1) {
    const uint32_t* keys = MakeRowKeys(dataset, r0, r1);
    const size_t stride = dataset.num_features();
    std::vector<int32_t> votes(r1 - r0, 0);
    for (size_t tb = 0; tb < m; tb += options.tree_block) {
      TraverseTile(e, keys, stride, r0, r1, tb, std::min(m, tb + options.tree_block),
                   [&](size_t, size_t r, int64_t leaf) { votes[r - r0] += labels[leaf]; });
    }
    size_t correct = 0;
    for (size_t r = r0; r < r1; ++r) {
      const int prediction = votes[r - r0] >= 0 ? data::kPositive : data::kNegative;
      if (prediction == dataset.Label(r)) ++correct;
    }
    block_correct[b] = correct;
  });
  size_t correct = 0;
  for (size_t c : block_correct) correct += c;
  return static_cast<double>(correct) / static_cast<double>(dataset.num_rows());
}

std::vector<double> ScoresImpl(const FlatEnsemble& e, size_t m, double initial,
                               double lr, const BatchOptions& options,
                               const data::Dataset& dataset) {
  const double* values = e.leaf_values();
  std::vector<double> out(dataset.num_rows(), initial);
  const Plan plan = MakePlan(options, dataset.num_rows());
  RunPlan(plan, dataset.num_rows(), [&](size_t, size_t r0, size_t r1) {
    const uint32_t* keys = MakeRowKeys(dataset, r0, r1);
    const size_t stride = dataset.num_features();
    for (size_t tb = 0; tb < m; tb += options.tree_block) {
      TraverseTile(e, keys, stride, r0, r1, tb, std::min(m, tb + options.tree_block),
                   [&](size_t, size_t r, int64_t leaf) { out[r] += lr * values[leaf]; });
    }
  });
  return out;
}

std::vector<double> StagedAccuracyCurveImpl(const FlatEnsemble& e, size_t m,
                                            double initial, double lr,
                                            const BatchOptions& options,
                                            const data::Dataset& dataset) {
  const double* values = e.leaf_values();
  const Plan plan = MakePlan(options, dataset.num_rows());
  const size_t num_blocks = plan.num_blocks;
  // Per-block stage tallies, merged after the fan-out (integer sums, so the
  // merge is schedule-independent).
  std::vector<size_t> block_correct(num_blocks * (m + 1), 0);
  RunPlan(plan, dataset.num_rows(), [&](size_t b, size_t r0, size_t r1) {
    size_t* correct = block_correct.data() + b * (m + 1);
    const uint32_t* keys = MakeRowKeys(dataset, r0, r1);
    const size_t stride = dataset.num_features();
    std::vector<double> acc(r1 - r0, initial);
    const int stage0 = initial >= 0.0 ? data::kPositive : data::kNegative;
    for (size_t r = r0; r < r1; ++r) {
      if (stage0 == dataset.Label(r)) ++correct[0];
    }
    for (size_t tb = 0; tb < m; tb += options.tree_block) {
      TraverseTile(e, keys, stride, r0, r1, tb, std::min(m, tb + options.tree_block),
                   [&](size_t t, size_t r, int64_t leaf) {
                     double& score = acc[r - r0];
                     score += lr * values[leaf];
                     const int p = score >= 0.0 ? data::kPositive : data::kNegative;
                     if (p == dataset.Label(r)) ++correct[t + 1];
                   });
    }
  });
  std::vector<double> out(m + 1, 0.0);
  for (size_t k = 0; k <= m; ++k) {
    size_t correct = 0;
    for (size_t b = 0; b < num_blocks; ++b) correct += block_correct[b * (m + 1) + k];
    out[k] = static_cast<double>(correct) / static_cast<double>(dataset.num_rows());
  }
  return out;
}

}  // namespace

BatchPredictor::BatchPredictor(FlatEnsemble ensemble, BatchOptions options)
    : BatchPredictor(std::make_shared<const FlatEnsemble>(std::move(ensemble)),
                     options) {}

BatchPredictor::BatchPredictor(std::shared_ptr<const FlatEnsemble> ensemble,
                               BatchOptions options)
    : ensemble_(std::move(ensemble)), options_(options) {
  options_.tree_block = std::max<size_t>(1, options_.tree_block);
}

std::vector<int> BatchPredictor::PredictLabels(const data::Dataset& dataset) const {
  assert(!ensemble_->is_regression());
  assert(dataset.num_rows() == 0 || dataset.num_features() == ensemble_->num_features());
  return PredictLabelsImpl(*ensemble_, ensemble_->num_trees(), options_, dataset);
}

VoteMatrix BatchPredictor::PredictAllVotes(const data::Dataset& dataset) const {
  assert(!ensemble_->is_regression());
  assert(dataset.num_rows() == 0 || dataset.num_features() == ensemble_->num_features());
  const size_t m = ensemble_->num_trees();
  // The per-block output state here is m bytes/row (vs 4 bytes/row for the
  // vote-count paths), so cap the auto block size: each block's matrix
  // slice is rewritten once per tree by the scatter below and must stay
  // cache-resident across those m passes, which one giant serial block
  // would not on large batches. Explicit row_block requests are honored
  // as-is.
  BatchOptions options = options_;
  if (options.row_block == 0 && m > 0) {
    constexpr size_t kSliceBytes = 512 * 1024;  // comfortably L2-resident
    options.row_block = std::max<size_t>(64, kSliceBytes / m);
  }
  return PredictAllVotesImpl(*ensemble_, m, options, dataset);
}

double BatchPredictor::LabelAccuracy(const data::Dataset& dataset) const {
  assert(!ensemble_->is_regression());
  if (dataset.num_rows() == 0) return 0.0;
  assert(dataset.num_features() == ensemble_->num_features());
  return LabelAccuracyImpl(*ensemble_, ensemble_->num_trees(), options_, dataset);
}

std::vector<double> BatchPredictor::Scores(const data::Dataset& dataset,
                                           size_t prefix_trees) const {
  assert(ensemble_->is_regression());
  assert(dataset.num_rows() == 0 || dataset.num_features() == ensemble_->num_features());
  const size_t m = std::min(prefix_trees, ensemble_->num_trees());
  return ScoresImpl(*ensemble_, m, ensemble_->initial_score(),
                    ensemble_->learning_rate(), options_, dataset);
}

double BatchPredictor::ScoreAccuracy(const data::Dataset& dataset,
                                     size_t prefix_trees) const {
  if (dataset.num_rows() == 0) return 0.0;
  const std::vector<double> scores = Scores(dataset, prefix_trees);
  size_t correct = 0;
  for (size_t r = 0; r < dataset.num_rows(); ++r) {
    const int prediction = scores[r] >= 0.0 ? data::kPositive : data::kNegative;
    if (prediction == dataset.Label(r)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.num_rows());
}

std::vector<double> BatchPredictor::StagedAccuracyCurve(
    const data::Dataset& dataset) const {
  assert(ensemble_->is_regression());
  const size_t m = ensemble_->num_trees();
  if (dataset.num_rows() == 0) return std::vector<double>(m + 1, 0.0);
  assert(dataset.num_features() == ensemble_->num_features());
  return StagedAccuracyCurveImpl(*ensemble_, m, ensemble_->initial_score(),
                                 ensemble_->learning_rate(), options_, dataset);
}

}  // namespace treewm::predict
