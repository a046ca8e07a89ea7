#include "common/stats.h"

#include <cmath>
#include <limits>

namespace treewm {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::PopulationVariance() const {
  if (count_ < 1) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningStats::PopulationStdDev() const { return std::sqrt(PopulationVariance()); }

double Mean(const std::vector<double>& values) {
  RunningStats stats;
  for (double v : values) stats.Add(v);
  return stats.Mean();
}

double PopulationStdDev(const std::vector<double>& values) {
  RunningStats stats;
  for (double v : values) stats.Add(v);
  return stats.PopulationStdDev();
}

}  // namespace treewm
