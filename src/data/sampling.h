// Dataset splitting and sampling utilities.
//
// Covers the paper's data handling: stratified train/test splits and the
// random trigger-set sampling of Algorithm 1 line 13.

#ifndef TREEWM_DATA_SAMPLING_H_
#define TREEWM_DATA_SAMPLING_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"

namespace treewm::data {

/// Index sets of a train/test partition.
struct SplitIndices {
  std::vector<size_t> train;
  std::vector<size_t> test;
};

/// Stratified split preserving the class ratio in both parts.
/// `test_fraction` in (0,1). Both parts are non-empty for any class that has
/// at least 2 members.
[[nodiscard]] Result<SplitIndices> StratifiedSplit(const Dataset& dataset, double test_fraction,
                                     Rng* rng);

/// Uniform random sample of `k` distinct row indices — Algorithm 1's
/// Sample(D_train, k).
[[nodiscard]] Result<std::vector<size_t>> SampleTriggerIndices(const Dataset& dataset, size_t k,
                                                 Rng* rng);

/// Materializes a split into train/test datasets.
struct TrainTest {
  Dataset train;
  Dataset test;
};
[[nodiscard]] Result<TrainTest> MakeTrainTest(const Dataset& dataset, double test_fraction, Rng* rng);

}  // namespace treewm::data

#endif  // TREEWM_DATA_SAMPLING_H_
