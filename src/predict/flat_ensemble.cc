#include "predict/flat_ensemble.h"

#include <algorithm>
#include <cassert>
#include <type_traits>

namespace treewm::predict {

template <typename Node>
int64_t FlatEnsemble::PackTree(std::span<const Node> nodes,
                               std::vector<int64_t>* entry_scratch) {
  assert(!nodes.empty());
  const int64_t base_internal = static_cast<int64_t>(nodes_.size());

  // Pass 1: assign arena entries (internal nodes get byte-scaled offsets,
  // leaves get ~payload) in source order, keeping each tree's nodes
  // contiguous in the arena.
  std::vector<int64_t>& entry_of = *entry_scratch;
  entry_of.resize(nodes.size());
  int64_t next_internal = base_internal;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].feature == -1) {
      if constexpr (std::is_same_v<Node, tree::TreeNode>) {
        entry_of[i] = ~static_cast<int64_t>(leaf_labels_.size());
        leaf_labels_.push_back(static_cast<int8_t>(nodes[i].label));
      } else {
        entry_of[i] = ~static_cast<int64_t>(leaf_values_.size());
        leaf_values_.push_back(nodes[i].value);
      }
    } else {
      entry_of[i] = (next_internal++) * static_cast<int64_t>(sizeof(FlatNode));
    }
  }

  // Pass 2: fill the packed records with remapped child entries.
  nodes_.resize(static_cast<size_t>(next_internal));
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].feature == -1) continue;
    FlatNode& n = nodes_[static_cast<size_t>(entry_of[i]) / sizeof(FlatNode)];
    n.ft = static_cast<uint64_t>(FloatKey(nodes[i].threshold)) << 32 |
           static_cast<uint32_t>(nodes[i].feature);
    n.child[0] = entry_of[static_cast<size_t>(nodes[i].left)];
    n.child[1] = entry_of[static_cast<size_t>(nodes[i].right)];
  }
  return entry_of[0];  // node 0 is the root in both source formats
}

FlatEnsemble FlatEnsemble::FromClassificationTrees(
    std::span<const tree::DecisionTree> trees) {
  FlatEnsemble out;
  out.is_regression_ = false;
  out.roots_.reserve(trees.size());
  size_t total_nodes = 0;
  size_t total_leaves = 0;
  size_t max_nodes = 0;
  for (const auto& t : trees) {
    total_nodes += t.NumNodes();
    total_leaves += t.NumLeaves();
    max_nodes = std::max(max_nodes, t.NumNodes());
  }
  out.nodes_.reserve(total_nodes - total_leaves);
  out.leaf_labels_.reserve(total_leaves);
  std::vector<int64_t> scratch;
  scratch.reserve(max_nodes);
  for (const auto& t : trees) {
    if (out.roots_.empty()) out.num_features_ = t.num_features();
    assert(t.num_features() == out.num_features_);
    out.roots_.push_back(out.PackTree<tree::TreeNode>(t.nodes(), &scratch));
  }
  return out;
}

FlatEnsemble FlatEnsemble::FromClassificationTree(const tree::DecisionTree& tree) {
  return FromClassificationTrees({&tree, 1});
}

Result<FlatEnsemble> FlatEnsemble::FromParts(
    std::vector<FlatNode> nodes, std::vector<int64_t> roots,
    std::vector<int8_t> leaf_labels, std::vector<double> leaf_values,
    size_t num_features, bool is_regression, double initial_score,
    double learning_rate) {
  if (roots.empty()) return Status::InvalidArgument("flat ensemble has no trees");
  if (num_features == 0) {
    return Status::InvalidArgument("flat ensemble needs at least one feature");
  }
  const size_t num_leaves = is_regression ? leaf_values.size() : leaf_labels.size();
  if (num_leaves == 0) {
    return Status::InvalidArgument("flat ensemble has no leaf payloads");
  }
  if (is_regression ? !leaf_labels.empty() : !leaf_values.empty()) {
    return Status::InvalidArgument(
        "flat ensemble carries the wrong leaf payload kind");
  }
  if (!is_regression && (initial_score != 0.0 || learning_rate != 0.0)) {
    return Status::InvalidArgument(
        "classification ensemble carries additive-model constants");
  }
  const int64_t arena_bytes =
      static_cast<int64_t>(nodes.size()) * static_cast<int64_t>(sizeof(FlatNode));
  auto valid_entry = [&](int64_t e) {
    if (e < 0) return static_cast<uint64_t>(~e) < num_leaves;
    return e % static_cast<int64_t>(sizeof(FlatNode)) == 0 && e < arena_bytes;
  };
  for (int64_t r : roots) {
    if (!valid_entry(r)) {
      return Status::InvalidArgument("flat ensemble root entry out of range");
    }
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const FlatNode& n = nodes[i];
    const int32_t feature = n.feature();
    if (feature < 0 || static_cast<size_t>(feature) >= num_features) {
      return Status::InvalidArgument("flat ensemble split feature out of range");
    }
    const int64_t own = static_cast<int64_t>(i) * static_cast<int64_t>(sizeof(FlatNode));
    for (int64_t c : {n.child[0], n.child[1]}) {
      // Forward-only internal edges are what makes traversal termination a
      // load-time fact instead of a runtime hope.
      if (!valid_entry(c) || (c >= 0 && c <= own)) {
        return Status::InvalidArgument("flat ensemble child entry out of range");
      }
    }
  }
  if (!is_regression) {
    for (int8_t label : leaf_labels) {
      if (label != 1 && label != -1) {
        return Status::InvalidArgument("flat ensemble leaf label must be +1/-1");
      }
    }
  }
  FlatEnsemble out;
  out.nodes_ = std::move(nodes);
  out.roots_ = std::move(roots);
  out.leaf_labels_ = std::move(leaf_labels);
  out.leaf_values_ = std::move(leaf_values);
  out.num_features_ = num_features;
  out.is_regression_ = is_regression;
  out.initial_score_ = initial_score;
  out.learning_rate_ = learning_rate;
  return out;
}

FlatEnsemble FlatEnsemble::FromRegressionTrees(
    std::span<const boosting::RegressionTree> trees, double initial_score,
    double learning_rate) {
  FlatEnsemble out;
  out.is_regression_ = true;
  out.initial_score_ = initial_score;
  out.learning_rate_ = learning_rate;
  out.roots_.reserve(trees.size());
  size_t total_nodes = 0;
  size_t total_leaves = 0;
  size_t max_nodes = 0;
  for (const auto& t : trees) {
    total_nodes += t.nodes().size();
    total_leaves += t.NumLeaves();
    max_nodes = std::max(max_nodes, t.nodes().size());
  }
  out.nodes_.reserve(total_nodes - total_leaves);
  out.leaf_values_.reserve(total_leaves);
  std::vector<int64_t> scratch;
  scratch.reserve(max_nodes);
  for (const auto& t : trees) {
    if (out.roots_.empty()) out.num_features_ = t.num_features();
    assert(t.num_features() == out.num_features_);
    out.roots_.push_back(out.PackTree<boosting::RegressionNode>(t.nodes(), &scratch));
  }
  return out;
}

}  // namespace treewm::predict
