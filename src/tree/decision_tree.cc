#include "tree/decision_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>

#include "common/string_util.h"
#include "tree/splitter.h"
#include "tree/trainer_core.h"

namespace treewm::tree {

Status TreeConfig::Validate() const {
  if (max_depth < -1 || max_depth == 0) {
    return Status::InvalidArgument("max_depth must be -1 (unlimited) or >= 1");
  }
  if (max_leaf_nodes < -1 || max_leaf_nodes == 0 || max_leaf_nodes == 1) {
    return Status::InvalidArgument("max_leaf_nodes must be -1 (unlimited) or >= 2");
  }
  return Status::OK();
}

namespace {

/// A frontier node awaiting expansion in best-first growth. The sort-once
/// engine addresses node membership as a range [begin, end) into the
/// TrainerCore columns; the retained reference path owns an index vector.
struct FrontierEntry {
  double gain;
  uint64_t sequence;  // deterministic FIFO tie-break
  int node_index;
  int depth;
  size_t begin;
  size_t end;
  std::vector<size_t> indices;  // reference path only (ranges otherwise)
  SplitCandidate split;
};

struct FrontierCompare {
  bool operator()(const FrontierEntry& a, const FrontierEntry& b) const {
    if (a.gain != b.gain) return a.gain < b.gain;  // max-heap on gain
    return a.sequence > b.sequence;                // then FIFO
  }
};

/// Shared argument validation for both trainers; also resolves the feature
/// sweep order (subset as given, else all features ascending).
Status ValidateFitInputs(const data::Dataset& dataset,
                         const std::vector<double>& weights,
                         const TreeConfig& config,
                         const std::vector<int>& feature_subset,
                         std::vector<int>* features) {
  TREEWM_RETURN_IF_ERROR(config.Validate());
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("cannot fit a tree on an empty dataset");
  }
  if (!weights.empty() && weights.size() != dataset.num_rows()) {
    return Status::InvalidArgument(
        StrFormat("weights size %zu != rows %zu", weights.size(), dataset.num_rows()));
  }
  for (int f : feature_subset) {
    if (f < 0 || static_cast<size_t>(f) >= dataset.num_features()) {
      return Status::InvalidArgument(StrFormat("feature %d out of range", f));
    }
  }
  *features = feature_subset;
  if (features->empty()) {
    features->resize(dataset.num_features());
    for (size_t j = 0; j < dataset.num_features(); ++j) {
      (*features)[j] = static_cast<int>(j);
    }
  }
  return Status::OK();
}

}  // namespace

Result<DecisionTree> DecisionTree::Fit(const data::Dataset& dataset,
                                       const std::vector<double>& weights,
                                       const TreeConfig& config,
                                       const std::vector<int>& feature_subset,
                                       const SortedColumns* sorted) {
  std::vector<int> features;
  TREEWM_RETURN_IF_ERROR(
      ValidateFitInputs(dataset, weights, config, feature_subset, &features));

  const std::vector<double> unit_weights =
      weights.empty() ? std::vector<double>(dataset.num_rows(), 1.0)
                      : std::vector<double>();
  const std::vector<double>& w = weights.empty() ? unit_weights : weights;
  TREEWM_RETURN_IF_ERROR(ValidateColumnsMatch(sorted, dataset));

  std::shared_ptr<const SortedColumns> owned_sorted;
  if (sorted == nullptr) {
    owned_sorted = SortedColumns::Build(dataset, &ThreadPool::Global());
    sorted = owned_sorted.get();
  }
  TrainerCore core(*sorted, features, /*with_identity=*/false);

  DecisionTree tree;
  tree.num_features_ = dataset.num_features();
  tree.feature_subset_ = feature_subset;

  const size_t n = dataset.num_rows();
  const int8_t* labels = dataset.labels().data();
  const double* row_weights = w.data();

  // Same accumulation order as Splitter::ComputeWeights over ascending rows.
  ClassWeights root_weights;
  for (size_t i = 0; i < n; ++i) root_weights.Add(labels[i], row_weights[i]);

  TreeNode root;
  root.label = root_weights.MajorityLabel();
  tree.nodes_.push_back(root);

  // Best-first frontier. With max_leaf_nodes == -1 the expansion order does
  // not change the final tree (greedy splits are node-local), so a single
  // code path serves both growth modes. Queued candidates stay valid while
  // other nodes are expanded: node ranges are disjoint, so partitions never
  // disturb a sibling's columns.
  std::priority_queue<FrontierEntry, std::vector<FrontierEntry>, FrontierCompare>
      frontier;
  uint64_t sequence = 0;

  auto try_enqueue = [&](int node_index, int depth, size_t begin, size_t end,
                         const ClassWeights& node_weights) {
    if (config.max_depth != -1 && depth >= config.max_depth) return;
    if (end - begin < 2) return;
    if (node_weights.positive <= 0.0 || node_weights.negative <= 0.0) return;  // pure
    std::optional<SplitCandidate> split;
    for (size_t slot = 0; slot < core.num_slots(); ++slot) {
      BestSplitOnColumn(core.Column(slot, begin, end), core.feature_at(slot),
                        labels, row_weights, node_weights, &split);
    }
    if (!split) return;
    frontier.push(FrontierEntry{split->gain, sequence++, node_index, depth, begin,
                                end, {}, *split});
  };

  try_enqueue(0, 0, 0, n, root_weights);

  int64_t splits_remaining = config.max_leaf_nodes == -1
                                 ? std::numeric_limits<int64_t>::max()
                                 : config.max_leaf_nodes - 1;

  while (!frontier.empty() && splits_remaining > 0) {
    const FrontierEntry entry = frontier.top();
    frontier.pop();
    --splits_remaining;

    const size_t mid = core.ApplySplit(entry.begin, entry.end,
                                       core.SlotOf(entry.split.feature),
                                       entry.split.left_count);
    assert(mid > entry.begin && mid < entry.end);

    const int left_index = static_cast<int>(tree.nodes_.size());
    TreeNode left_node;
    left_node.label = entry.split.left_weights.MajorityLabel();
    tree.nodes_.push_back(left_node);

    const int right_index = static_cast<int>(tree.nodes_.size());
    TreeNode right_node;
    right_node.label = entry.split.right_weights.MajorityLabel();
    tree.nodes_.push_back(right_node);

    TreeNode& parent = tree.nodes_[static_cast<size_t>(entry.node_index)];
    parent.feature = entry.split.feature;
    parent.threshold = entry.split.threshold;
    parent.left = left_index;
    parent.right = right_index;

    try_enqueue(left_index, entry.depth + 1, entry.begin, mid,
                entry.split.left_weights);
    try_enqueue(right_index, entry.depth + 1, mid, entry.end,
                entry.split.right_weights);
  }

  return tree;
}

Result<DecisionTree> DecisionTree::FitReference(const data::Dataset& dataset,
                                                const std::vector<double>& weights,
                                                const TreeConfig& config,
                                                const std::vector<int>& feature_subset) {
  std::vector<int> features;
  TREEWM_RETURN_IF_ERROR(
      ValidateFitInputs(dataset, weights, config, feature_subset, &features));

  const std::vector<double> unit_weights =
      weights.empty() ? std::vector<double>(dataset.num_rows(), 1.0)
                      : std::vector<double>();
  const std::vector<double>& w = weights.empty() ? unit_weights : weights;

  Splitter splitter(dataset, w);

  DecisionTree tree;
  tree.num_features_ = dataset.num_features();
  tree.feature_subset_ = feature_subset;

  std::vector<size_t> root_indices(dataset.num_rows());
  for (size_t i = 0; i < dataset.num_rows(); ++i) root_indices[i] = i;
  const ClassWeights root_weights = splitter.ComputeWeights(root_indices);

  TreeNode root;
  root.label = root_weights.MajorityLabel();
  tree.nodes_.push_back(root);

  std::priority_queue<FrontierEntry, std::vector<FrontierEntry>, FrontierCompare>
      frontier;
  uint64_t sequence = 0;

  auto try_enqueue = [&](int node_index, int depth, std::vector<size_t> indices,
                         const ClassWeights& node_weights) {
    if (config.max_depth != -1 && depth >= config.max_depth) return;
    if (indices.size() < 2) return;
    if (node_weights.positive <= 0.0 || node_weights.negative <= 0.0) return;  // pure
    std::optional<SplitCandidate> split =
        splitter.FindBestSplit(indices, features, node_weights);
    if (!split) return;
    frontier.push(FrontierEntry{split->gain, sequence++, node_index, depth, 0, 0,
                                std::move(indices), *split});
  };

  try_enqueue(0, 0, std::move(root_indices), root_weights);

  int64_t splits_remaining = config.max_leaf_nodes == -1
                                 ? std::numeric_limits<int64_t>::max()
                                 : config.max_leaf_nodes - 1;

  std::vector<size_t> left_indices;
  std::vector<size_t> right_indices;
  while (!frontier.empty() && splits_remaining > 0) {
    // priority_queue::top returns const&; copy out the small fields and move
    // the index vector via const_cast-free re-pop pattern.
    FrontierEntry entry = std::move(const_cast<FrontierEntry&>(frontier.top()));
    frontier.pop();
    --splits_remaining;

    splitter.Partition(entry.indices, entry.split, &left_indices, &right_indices);
    assert(!left_indices.empty() && !right_indices.empty());

    const int left_index = static_cast<int>(tree.nodes_.size());
    TreeNode left_node;
    left_node.label = entry.split.left_weights.MajorityLabel();
    tree.nodes_.push_back(left_node);

    const int right_index = static_cast<int>(tree.nodes_.size());
    TreeNode right_node;
    right_node.label = entry.split.right_weights.MajorityLabel();
    tree.nodes_.push_back(right_node);

    TreeNode& parent = tree.nodes_[static_cast<size_t>(entry.node_index)];
    parent.feature = entry.split.feature;
    parent.threshold = entry.split.threshold;
    parent.left = left_index;
    parent.right = right_index;

    try_enqueue(left_index, entry.depth + 1, std::move(left_indices),
                entry.split.left_weights);
    try_enqueue(right_index, entry.depth + 1, std::move(right_indices),
                entry.split.right_weights);
    left_indices = {};
    right_indices = {};
  }

  return tree;
}

int DecisionTree::Predict(std::span<const float> row) const {
  return nodes_[static_cast<size_t>(LeafIndexFor(row))].label;
}

int DecisionTree::LeafIndexFor(std::span<const float> row) const {
  assert(row.size() == num_features_);
  int node = 0;
  while (nodes_[static_cast<size_t>(node)].feature != -1) {
    const TreeNode& n = nodes_[static_cast<size_t>(node)];
    node = row[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return node;
}

int DecisionTree::Depth() const {
  // Iterative DFS carrying depth; nodes_ is acyclic by construction.
  int max_depth = 0;
  std::vector<std::pair<int, int>> stack{{0, 0}};
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[static_cast<size_t>(node)];
    if (n.feature == -1) {
      max_depth = std::max(max_depth, depth);
    } else {
      stack.push_back({n.left, depth + 1});
      stack.push_back({n.right, depth + 1});
    }
  }
  return max_depth;
}

size_t DecisionTree::NumLeaves() const {
  size_t leaves = 0;
  for (const TreeNode& n : nodes_) {
    if (n.feature == -1) ++leaves;
  }
  return leaves;
}

void DecisionTree::ForEachLeaf(
    const std::function<void(int node, int label, std::span<const PathConstraint>)>&
        visit) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // One depth-first walk keeps the current path's merged bounds in
  // per-feature arrays. Entering a child logs what it overwrites, and a
  // popped frame first rolls the log back to its parent's mark, so no
  // frame carries a copy of its ancestors' constraints. The stack pops the
  // right child before the left. Each leaf's box is written into one
  // reused buffer.
  std::vector<double> lo(num_features_, -kInf);
  std::vector<double> hi(num_features_, kInf);
  std::vector<uint8_t> tested(num_features_, 0);
  std::vector<int> path_features;  // tested features, in first-test order
  struct Undo {
    int feature;
    double lo;
    double hi;
    bool first_test;
  };
  std::vector<Undo> undo;
  struct Frame {
    int node;
    int parent;        ///< -1 for the root
    size_t undo_mark;  ///< undo log length at the parent
  };
  std::vector<Frame> stack{{0, -1, 0}};
  std::vector<PathConstraint> leaf;
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    while (undo.size() > frame.undo_mark) {
      const Undo& u = undo.back();
      const auto f = static_cast<size_t>(u.feature);
      lo[f] = u.lo;
      hi[f] = u.hi;
      if (u.first_test) {
        tested[f] = 0;
        path_features.pop_back();
      }
      undo.pop_back();
    }
    if (frame.parent >= 0) {
      // The split's first test of a feature sets the bound outright; later
      // tests on the path keep the tighter bound.
      const TreeNode& p = nodes_[static_cast<size_t>(frame.parent)];
      const auto f = static_cast<size_t>(p.feature);
      const double v = static_cast<double>(p.threshold);
      const bool first_test = tested[f] == 0;
      undo.push_back({p.feature, lo[f], hi[f], first_test});
      if (first_test) {
        tested[f] = 1;
        path_features.push_back(p.feature);
      }
      if (frame.node == p.left) {
        hi[f] = first_test ? v : std::min(hi[f], v);
      } else {
        lo[f] = first_test ? v : std::max(lo[f], v);
      }
    }
    const TreeNode& n = nodes_[static_cast<size_t>(frame.node)];
    if (n.feature == -1) {
      leaf.clear();
      for (int f : path_features) {
        leaf.push_back({f, lo[static_cast<size_t>(f)], hi[static_cast<size_t>(f)]});
      }
      std::sort(leaf.begin(), leaf.end(),
                [](const PathConstraint& a, const PathConstraint& b) {
                  return a.feature < b.feature;
                });
      visit(frame.node, n.label, leaf);
      continue;
    }
    stack.push_back({n.left, frame.node, undo.size()});
    stack.push_back({n.right, frame.node, undo.size()});
  }
}

JsonValue DecisionTree::ToJson() const {
  JsonValue out = JsonValue::MakeObject();
  out.Set("num_features", JsonValue(num_features_));
  JsonValue subset = JsonValue::MakeArray();
  for (int f : feature_subset_) subset.Append(JsonValue(f));
  out.Set("feature_subset", std::move(subset));
  JsonValue nodes = JsonValue::MakeArray();
  for (const TreeNode& n : nodes_) {
    JsonValue node = JsonValue::MakeObject();
    node.Set("f", JsonValue(n.feature));
    if (n.feature != -1) {
      node.Set("t", JsonValue(static_cast<double>(n.threshold)));
      node.Set("l", JsonValue(n.left));
      node.Set("r", JsonValue(n.right));
    }
    node.Set("y", JsonValue(n.label));
    nodes.Append(std::move(node));
  }
  out.Set("nodes", std::move(nodes));
  return out;
}

Result<DecisionTree> DecisionTree::FromJson(const JsonValue& json) {
  if (!json.is_object()) return Status::ParseError("tree JSON must be an object");
  // Checked accessors throughout: a truncated or hand-corrupted model file
  // must surface ParseError, never trip a typed-accessor assert or read a
  // garbage cast (registry cold-start fails closed).
  TREEWM_ASSIGN_OR_RETURN(int64_t num_features, json.GetInt64("num_features"));
  if (num_features < 0) {
    return Status::ParseError("'num_features' must be non-negative");
  }
  TREEWM_ASSIGN_OR_RETURN(const JsonValue* nodes_json, json.GetArray("nodes"));

  std::vector<TreeNode> nodes;
  nodes.reserve(nodes_json->AsArray().size());
  for (const JsonValue& node_json : nodes_json->AsArray()) {
    if (!node_json.is_object()) return Status::ParseError("node must be an object");
    TreeNode n;
    TREEWM_ASSIGN_OR_RETURN(n.feature, node_json.GetInt("f"));
    TREEWM_ASSIGN_OR_RETURN(n.label, node_json.GetInt("y"));
    if (n.feature != -1) {
      TREEWM_ASSIGN_OR_RETURN(double threshold, node_json.GetDouble("t"));
      TREEWM_ASSIGN_OR_RETURN(n.left, node_json.GetInt("l"));
      TREEWM_ASSIGN_OR_RETURN(n.right, node_json.GetInt("r"));
      n.threshold = static_cast<float>(threshold);
    }
    nodes.push_back(n);
  }
  TREEWM_ASSIGN_OR_RETURN(
      DecisionTree tree,
      FromNodes(std::move(nodes), static_cast<size_t>(num_features)));
  if (json.Find("feature_subset") != nullptr) {
    TREEWM_ASSIGN_OR_RETURN(const JsonValue* subset, json.GetArray("feature_subset"));
    for (const JsonValue& f : subset->AsArray()) {
      TREEWM_ASSIGN_OR_RETURN(int index, f.ToInt());
      if (index < 0 || index >= num_features) {
        return Status::ParseError(
            StrFormat("feature_subset entry %d out of range", index));
      }
      tree.feature_subset_.push_back(index);
    }
  }
  return tree;
}

Result<DecisionTree> DecisionTree::FromNodes(std::vector<TreeNode> nodes,
                                             size_t num_features) {
  if (nodes.empty()) return Status::InvalidArgument("tree needs at least one node");
  std::vector<int> reference_count(nodes.size(), 0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const TreeNode& n = nodes[i];
    if (n.feature == -1) {
      if (n.label != 1 && n.label != -1) {
        return Status::InvalidArgument(StrFormat("leaf %zu label must be +1/-1", i));
      }
      continue;
    }
    if (n.feature < 0 || static_cast<size_t>(n.feature) >= num_features) {
      return Status::InvalidArgument(StrFormat("node %zu: feature out of range", i));
    }
    for (int child : {n.left, n.right}) {
      if (child <= static_cast<int>(i) || child >= static_cast<int>(nodes.size())) {
        return Status::InvalidArgument(
            StrFormat("node %zu: child index %d invalid (must be > parent)", i, child));
      }
      ++reference_count[static_cast<size_t>(child)];
    }
  }
  if (reference_count[0] != 0) {
    return Status::InvalidArgument("root must not be referenced as a child");
  }
  for (size_t i = 1; i < nodes.size(); ++i) {
    if (reference_count[i] != 1) {
      return Status::InvalidArgument(
          StrFormat("node %zu referenced %d times (want exactly 1)", i,
                    reference_count[i]));
    }
  }
  DecisionTree tree;
  tree.nodes_ = std::move(nodes);
  tree.num_features_ = num_features;
  return tree;
}

bool DecisionTree::StructurallyEqual(const DecisionTree& other) const {
  if (num_features_ != other.num_features_ || nodes_.size() != other.nodes_.size()) {
    return false;
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const TreeNode& a = nodes_[i];
    const TreeNode& b = other.nodes_[i];
    if (a.feature != b.feature || a.left != b.left || a.right != b.right ||
        a.label != b.label) {
      return false;
    }
    if (a.feature != -1 && a.threshold != b.threshold) return false;
  }
  return true;
}

}  // namespace treewm::tree
