// Watermark detection attack (paper §4.2.1).
//
// A white-box attacker inspects per-tree structural statistics (depth,
// number of leaves) hoping to reconstruct the signature: trees forced to
// misclassify (bit 1) might have grown larger. Two strategies from the
// paper:
//   Strategy 1 ("band"): bit 0 below mean − σ, bit 1 above mean + σ,
//     everything in between is uncertain.
//   Strategy 2 ("threshold"): the mean is a sharp cut; no uncertainty.
// Table 2 reports #correct / #wrong / #uncertain for both.

#ifndef TREEWM_ATTACKS_DETECTION_H_
#define TREEWM_ATTACKS_DETECTION_H_

#include <string>
#include <vector>

#include "core/signature.h"
#include "data/dataset.h"
#include "forest/random_forest.h"

namespace treewm::attacks {

/// Which per-tree statistic the attacker measures. kDepth/kLeafCount are the
/// paper's structural statistics; kErrorRate is the behavioral extension
/// (per-tree error on a reference sample, one batched vote-matrix query).
enum class TreeStatistic { kDepth, kLeafCount, kErrorRate };

/// "Depth" / "#leaves" (Table 2 row labels).
const char* TreeStatisticName(TreeStatistic statistic);

/// The attacker's per-tree guess.
enum class BitGuess : int8_t { kZero = 0, kOne = 1, kUncertain = 2 };

/// Outcome of one detection attempt against a known ground-truth signature.
struct DetectionReport {
  TreeStatistic statistic = TreeStatistic::kDepth;
  double mean = 0.0;    ///< mean of the statistic over the ensemble
  double stddev = 0.0;  ///< population standard deviation
  /// Per-tree guesses, parallel to the ensemble.
  std::vector<BitGuess> guesses;
  /// Tallies against the true signature.
  size_t num_correct = 0;
  size_t num_wrong = 0;
  size_t num_uncertain = 0;
};

/// Extracts the chosen structural statistic per tree. kErrorRate needs a
/// reference dataset and returns an empty vector here — use
/// MeasureErrorRates / DetectByErrorRate for the behavioral statistic.
std::vector<double> MeasureStatistic(const forest::RandomForest& forest,
                                     TreeStatistic statistic);

/// Strategy 1: mean ± stddev band with uncertain middle.
DetectionReport DetectByBand(const forest::RandomForest& forest,
                             TreeStatistic statistic,
                             const core::Signature& true_signature);

/// Strategy 2: sharp threshold at the mean (<= mean -> bit 0).
DetectionReport DetectByThreshold(const forest::RandomForest& forest,
                                  TreeStatistic statistic,
                                  const core::Signature& true_signature);

/// Per-tree error rates on `reference`, measured through one batched
/// vote-matrix query (no per-row PredictAll loop).
std::vector<double> MeasureErrorRates(const forest::RandomForest& forest,
                                      const data::Dataset& reference);

/// Behavioral strategy (extension): trees forced to misclassify their
/// trigger rows (bit 1) tend to show higher error on real data, so threshold
/// the per-tree error rate at the ensemble mean (<= mean -> bit 0), like
/// Strategy 2 does for structural statistics. Errors come from a single
/// batched vote-matrix query over `reference`.
DetectionReport DetectByErrorRate(const forest::RandomForest& forest,
                                  const data::Dataset& reference,
                                  const core::Signature& true_signature);

}  // namespace treewm::attacks

#endif  // TREEWM_ATTACKS_DETECTION_H_
