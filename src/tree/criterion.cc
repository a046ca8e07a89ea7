#include "tree/criterion.h"

namespace treewm::tree {

double GiniImpurity(const ClassWeights& w) {
  const double total = w.Total();
  if (total <= 0.0) return 0.0;
  const double p = w.positive / total;
  return 2.0 * p * (1.0 - p);
}

double ImpurityDecrease(const ClassWeights& parent, const ClassWeights& left,
                        const ClassWeights& right) {
  const double total = parent.Total();
  if (total <= 0.0) return 0.0;
  return GiniImpurity(parent) - (left.Total() / total) * GiniImpurity(left) -
         (right.Total() / total) * GiniImpurity(right);
}

}  // namespace treewm::tree
