// Blocked, multi-threaded batch traversal over a FlatEnsemble.
//
// Each call splits its rows into blocks, transforms a block's rows once and
// walks every tree over them, so the rows stay cache-resident while the
// ensemble streams through. Row blocks fan out across a ThreadPool; every
// block writes a disjoint output slice and per-block tallies are integers,
// so results are identical for any thread count and any schedule (see
// src/predict/README.md).
//
// Within a block, six rows descend the same tree as independent dependency
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

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "data/dataset.h"
#include "predict/flat_ensemble.h"
#include "predict/vote_matrix.h"

namespace treewm::predict {

/// Stateless batch-inference driver over a FlatEnsemble (owned or shared —
/// RandomForest and Gbdt cache one flat image and share it across calls, so
/// repeated batches pay the packing cost once).
class BatchPredictor {
 public:
  /// Row blocks fan out on `pool`; nullptr is serial. The pool only changes
  /// speed, never results. The caller owns it and keeps it alive while the
  /// predictor is in use.
  explicit BatchPredictor(FlatEnsemble ensemble,
                          ThreadPool* pool = &ThreadPool::Global());
  explicit BatchPredictor(std::shared_ptr<const FlatEnsemble> ensemble,
                          ThreadPool* pool = &ThreadPool::Global());

  /// Per-tree votes as a flat row-major matrix — the hot-path output shape:
  /// one allocation for the whole batch, votes written straight from the
  /// traversal staging buffers. Classification only.
  VoteMatrix PredictAllVotes(const data::Dataset& dataset) const;

  /// Majority-vote accuracy (0.0 on an empty dataset). Classification only.
  double LabelAccuracy(const data::Dataset& dataset) const;

  /// Additive scores initial + lr * Σ leaf over every tree (bit-exact with
  /// scalar accumulation). Regression only.
  std::vector<double> Scores(const data::Dataset& dataset) const;

  /// Accuracy of sign(score) (0.0 on an empty dataset). Regression only.
  double ScoreAccuracy(const data::Dataset& dataset) const;

  /// result[k] = accuracy using only the first k trees, for every
  /// k in [0, num_trees], computed in a single traversal pass via per-tree
  /// partial sums. Regression only.
  std::vector<double> StagedAccuracyCurve(const data::Dataset& dataset) const;

 private:
  std::shared_ptr<const FlatEnsemble> ensemble_;
  ThreadPool* pool_;
};

}  // namespace treewm::predict

#endif  // TREEWM_PREDICT_BATCH_PREDICTOR_H_
