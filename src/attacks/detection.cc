#include "attacks/detection.h"

#include <span>

#include "common/stats.h"
#include "predict/vote_matrix.h"

namespace treewm::attacks {

const char* TreeStatisticName(TreeStatistic statistic) {
  switch (statistic) {
    case TreeStatistic::kDepth:
      return "Depth";
    case TreeStatistic::kLeafCount:
      return "#leaves";
    case TreeStatistic::kErrorRate:
      return "error rate";
  }
  return "?";
}

std::vector<double> MeasureStatistic(const forest::RandomForest& forest,
                                     TreeStatistic statistic) {
  switch (statistic) {
    case TreeStatistic::kDepth:
      return forest.TreeDepths();
    case TreeStatistic::kLeafCount:
      return forest.TreeLeafCounts();
    case TreeStatistic::kErrorRate:
      break;  // needs a reference dataset — see MeasureErrorRates
  }
  return {};
}

namespace {

DetectionReport Tally(TreeStatistic statistic, const std::vector<double>& values,
                      const std::vector<BitGuess>& guesses,
                      const core::Signature& truth) {
  DetectionReport report;
  report.statistic = statistic;
  RunningStats stats;
  for (double v : values) stats.Add(v);
  report.mean = stats.Mean();
  report.stddev = stats.PopulationStdDev();
  report.guesses = guesses;
  for (size_t t = 0; t < guesses.size(); ++t) {
    if (guesses[t] == BitGuess::kUncertain) {
      ++report.num_uncertain;
    } else if (static_cast<uint8_t>(guesses[t]) == truth.bit(t)) {
      ++report.num_correct;
    } else {
      ++report.num_wrong;
    }
  }
  return report;
}

}  // namespace

DetectionReport DetectByBand(const forest::RandomForest& forest,
                             TreeStatistic statistic,
                             const core::Signature& true_signature) {
  const std::vector<double> values = MeasureStatistic(forest, statistic);
  RunningStats stats;
  for (double v : values) stats.Add(v);
  const double lo = stats.Mean() - stats.PopulationStdDev();
  const double hi = stats.Mean() + stats.PopulationStdDev();
  std::vector<BitGuess> guesses(values.size(), BitGuess::kUncertain);
  for (size_t t = 0; t < values.size(); ++t) {
    if (values[t] < lo) {
      guesses[t] = BitGuess::kZero;  // "small" trees look unforced
    } else if (values[t] > hi) {
      guesses[t] = BitGuess::kOne;  // "large" trees look like overfitters
    }
  }
  return Tally(statistic, values, guesses, true_signature);
}

DetectionReport DetectByThreshold(const forest::RandomForest& forest,
                                  TreeStatistic statistic,
                                  const core::Signature& true_signature) {
  const std::vector<double> values = MeasureStatistic(forest, statistic);
  RunningStats stats;
  for (double v : values) stats.Add(v);
  std::vector<BitGuess> guesses(values.size());
  for (size_t t = 0; t < values.size(); ++t) {
    guesses[t] = values[t] <= stats.Mean() ? BitGuess::kZero : BitGuess::kOne;
  }
  return Tally(statistic, values, guesses, true_signature);
}

std::vector<double> MeasureErrorRates(const forest::RandomForest& forest,
                                      const data::Dataset& reference) {
  std::vector<double> rates(forest.num_trees(), 0.0);
  if (reference.num_rows() == 0) return rates;
  // One flat-engine query answers every (row, tree) vote; the per-tree error
  // tally is then a column scan of the matrix.
  const predict::VoteMatrix votes = forest.PredictAllVotes(reference);
  std::vector<size_t> errors(forest.num_trees(), 0);
  for (size_t i = 0; i < reference.num_rows(); ++i) {
    const std::span<const int8_t> row = votes.row(i);
    const int8_t label = static_cast<int8_t>(reference.Label(i));
    for (size_t t = 0; t < rates.size(); ++t) {
      if (row[t] != label) ++errors[t];
    }
  }
  for (size_t t = 0; t < rates.size(); ++t) {
    rates[t] = static_cast<double>(errors[t]) /
               static_cast<double>(reference.num_rows());
  }
  return rates;
}

DetectionReport DetectByErrorRate(const forest::RandomForest& forest,
                                  const data::Dataset& reference,
                                  const core::Signature& true_signature) {
  const std::vector<double> values = MeasureErrorRates(forest, reference);
  RunningStats stats;
  for (double v : values) stats.Add(v);
  std::vector<BitGuess> guesses(values.size());
  for (size_t t = 0; t < values.size(); ++t) {
    guesses[t] = values[t] <= stats.Mean() ? BitGuess::kZero : BitGuess::kOne;
  }
  return Tally(TreeStatistic::kErrorRate, values, guesses, true_signature);
}

}  // namespace treewm::attacks
