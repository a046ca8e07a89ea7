// The split criterion for weighted binary classification: Gini impurity.
//
// Impurities operate on the total positive/negative *sample weight* reaching
// a node, because Algorithm 1 embeds the watermark by inflating trigger
// sample weights (TrainWithTrigger) — the tree learner must honor weights
// exactly as sklearn's does.

#ifndef TREEWM_TREE_CRITERION_H_
#define TREEWM_TREE_CRITERION_H_

namespace treewm::tree {

/// Weighted class mass at a node.
struct ClassWeights {
  double positive = 0.0;
  double negative = 0.0;

  double Total() const { return positive + negative; }

  void Add(int label, double weight) {
    if (label > 0) {
      positive += weight;
    } else {
      negative += weight;
    }
  }

  void Remove(int label, double weight) {
    if (label > 0) {
      positive -= weight;
    } else {
      negative -= weight;
    }
  }

  /// Majority label by weight; ties break positive (stable, documented).
  int MajorityLabel() const { return positive >= negative ? +1 : -1; }
};

/// Gini impurity 2p(1-p) of a weighted class distribution; 0 for empty nodes.
double GiniImpurity(const ClassWeights& w);

/// Weighted Gini decrease of splitting `parent` into `left` + `right`:
///   gini(parent) - (w_l/w_p) gini(left) - (w_r/w_p) gini(right).
/// Returns 0 for an empty parent.
double ImpurityDecrease(const ClassWeights& parent, const ClassWeights& left,
                        const ClassWeights& right);

}  // namespace treewm::tree

#endif  // TREEWM_TREE_CRITERION_H_
