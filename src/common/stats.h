// Streaming and batch descriptive statistics.
//
// The watermark detection attack (paper §4.2.1) and the Adjust(H) heuristic
// (paper §3.2) both reduce to "mean and standard deviation of a per-tree
// statistic"; RunningStats is the shared primitive.

#ifndef TREEWM_COMMON_STATS_H_
#define TREEWM_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace treewm {

/// Welford streaming mean/variance accumulator.
class RunningStats {
 public:
  /// Adds one observation.
  void Add(double x);

  /// Number of observations so far.
  size_t count() const { return count_; }

  /// Sample mean (0 when empty).
  double Mean() const { return mean_; }

  /// Population variance (divides by n; 0 when fewer than 1 observation).
  double PopulationVariance() const;

  /// sqrt(PopulationVariance()). The paper's detection attack uses the
  /// population convention (numpy default).
  double PopulationStdDev() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Mean of `values` (0 when empty).
double Mean(const std::vector<double>& values);

/// Population standard deviation of `values` (0 when empty).
double PopulationStdDev(const std::vector<double>& values);

}  // namespace treewm

#endif  // TREEWM_COMMON_STATS_H_
