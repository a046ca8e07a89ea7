// Blocked, multi-threaded batch traversal over a FlatEnsemble.
//
// Work is tiled as row-blocks × tree-blocks: a block of rows (default 64,
// ~5 KB of features) is pinned while tree-blocks stream through it, so both
// the rows and each tree's arena segment stay cache-resident. Row blocks fan
// out across a ThreadPool; every block writes a disjoint output slice and
// per-block tallies are integers, so results are identical for any thread
// count and any schedule (see src/predict/README.md).
//
// Within a tile, six rows descend the same tree as independent dependency
// chains (lanes); a lane that reaches its leaf emits and is refilled with
// the block's next row at once, so no lane waits for the others. The
// overlapping chains hide the dependent-load latency that dominates
// one-row-at-a-time traversal.
//
// For regression (GBDT) ensembles every per-row accumulation runs in
// ascending tree order with the same `score += lr * leaf` operation sequence
// as the scalar Gbdt::Score, so scores — not just predictions — are
// bit-exact with the reference path.

#ifndef TREEWM_PREDICT_BATCH_PREDICTOR_H_
#define TREEWM_PREDICT_BATCH_PREDICTOR_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "predict/flat_ensemble.h"
#include "predict/vote_matrix.h"

namespace treewm::predict {

/// Tiling and parallelism knobs. Defaults are safe everywhere; they only
/// affect speed, never results.
struct BatchOptions {
  /// 0 = process-global pool, 1 = serial, k > 1 = private pool of k threads.
  size_t num_threads = 0;
  /// Rows per tile; 0 = auto (a few blocks per worker thread, so each
  /// tree's arena segment is loaded as few times as possible while keeping
  /// every worker fed).
  size_t row_block = 0;
  /// Trees per tile (clamped to >= 1).
  size_t tree_block = 16;
};

/// Stateless batch-inference driver over a FlatEnsemble (owned or shared —
/// the immutable model classes cache one flat image and share it across
/// calls, so repeated batches pay the packing cost once).
class BatchPredictor {
 public:
  /// Sentinel for "use every tree".
  static constexpr size_t kAllTrees = static_cast<size_t>(-1);

  explicit BatchPredictor(FlatEnsemble ensemble, BatchOptions options = {});
  explicit BatchPredictor(std::shared_ptr<const FlatEnsemble> ensemble,
                          BatchOptions options = {});

  /// Majority-vote labels (±1, ties -> +1) per row. Classification only.
  std::vector<int> PredictLabels(const data::Dataset& dataset) const;

  /// Per-tree votes as a flat row-major matrix — the hot-path output shape:
  /// one allocation for the whole batch, votes written straight from the
  /// traversal staging buffers. Classification only.
  VoteMatrix PredictAllVotes(const data::Dataset& dataset) const;

  /// Majority-vote accuracy (0.0 on an empty dataset). Classification only.
  double LabelAccuracy(const data::Dataset& dataset) const;

  /// Additive scores initial + lr * Σ leaf over the first `prefix_trees`
  /// trees (bit-exact with scalar accumulation). Regression only.
  std::vector<double> Scores(const data::Dataset& dataset,
                             size_t prefix_trees = kAllTrees) const;

  /// Accuracy of sign(score) over the first `prefix_trees` trees (0.0 on an
  /// empty dataset). Regression only.
  double ScoreAccuracy(const data::Dataset& dataset,
                       size_t prefix_trees = kAllTrees) const;

  /// result[k] = accuracy using only the first k trees, for every
  /// k in [0, num_trees], computed in a single traversal pass via per-tree
  /// partial sums. Regression only.
  std::vector<double> StagedAccuracyCurve(const data::Dataset& dataset) const;

  const BatchOptions& options() const { return options_; }

 private:
  std::shared_ptr<const FlatEnsemble> ensemble_;
  BatchOptions options_;
};

}  // namespace treewm::predict

#endif  // TREEWM_PREDICT_BATCH_PREDICTOR_H_
