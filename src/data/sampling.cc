#include "data/sampling.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace treewm::data {

namespace {

/// Returns the row indices of each class: [positives, negatives].
std::pair<std::vector<size_t>, std::vector<size_t>> SplitByClass(const Dataset& dataset) {
  std::vector<size_t> pos;
  std::vector<size_t> neg;
  for (size_t i = 0; i < dataset.num_rows(); ++i) {
    (dataset.Label(i) == kPositive ? pos : neg).push_back(i);
  }
  return {std::move(pos), std::move(neg)};
}

}  // namespace

Result<SplitIndices> StratifiedSplit(const Dataset& dataset, double test_fraction,
                                     Rng* rng) {
  if (test_fraction <= 0.0 || test_fraction >= 1.0) {
    return Status::InvalidArgument(
        StrFormat("test_fraction must be in (0,1), got %f", test_fraction));
  }
  if (dataset.num_rows() < 2) {
    return Status::InvalidArgument("need at least 2 rows to split");
  }
  auto [pos, neg] = SplitByClass(dataset);
  SplitIndices out;
  for (auto* group : {&pos, &neg}) {
    if (group->empty()) continue;
    rng->Shuffle(group);
    size_t test_count = static_cast<size_t>(
        std::llround(test_fraction * static_cast<double>(group->size())));
    // Keep both sides non-empty when the class has >= 2 members.
    if (group->size() >= 2) {
      test_count = std::clamp<size_t>(test_count, 1, group->size() - 1);
    }
    for (size_t i = 0; i < group->size(); ++i) {
      (i < test_count ? out.test : out.train).push_back((*group)[i]);
    }
  }
  rng->Shuffle(&out.train);
  rng->Shuffle(&out.test);
  return out;
}

Result<std::vector<size_t>> SampleTriggerIndices(const Dataset& dataset, size_t k,
                                                 Rng* rng) {
  if (k == 0) return Status::InvalidArgument("trigger set must be non-empty");
  if (k > dataset.num_rows()) {
    return Status::InvalidArgument(
        StrFormat("trigger size %zu exceeds dataset size %zu", k, dataset.num_rows()));
  }
  return rng->SampleWithoutReplacement(dataset.num_rows(), k);
}

Result<TrainTest> MakeTrainTest(const Dataset& dataset, double test_fraction, Rng* rng) {
  TREEWM_ASSIGN_OR_RETURN(SplitIndices split,
                          StratifiedSplit(dataset, test_fraction, rng));
  TrainTest out{dataset.Subset(split.train), dataset.Subset(split.test)};
  return out;
}

}  // namespace treewm::data
