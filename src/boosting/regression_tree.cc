#include "boosting/regression_tree.h"

#include <algorithm>
#include <cassert>

#include <memory>
#include <utility>

#include "common/string_util.h"
#include "tree/histogram_core.h"
#include "tree/trainer_core.h"

namespace treewm::boosting {

Status RegressionTreeConfig::Validate() const {
  if (max_depth < 1) return Status::InvalidArgument("max_depth must be >= 1");
  if (min_samples_leaf < 1) {
    return Status::InvalidArgument("min_samples_leaf must be >= 1");
  }
  if (min_gain < 0.0) return Status::InvalidArgument("min_gain must be >= 0");
  if (max_bins < 2 || max_bins > 65535) {
    return Status::InvalidArgument("max_bins must be in [2, 65535]");
  }
  return Status::OK();
}

namespace {

struct Entry {
  float value;
  double target;
};

/// Best SSE-reducing split of `indices` over all features, or feature -1.
/// This is the RETAINED NAIVE REFERENCE sweep (per-node re-sort); production
/// training runs on the presorted engine below. Kept as the executable
/// specification the property tests compare against.
struct BestSplit {
  int feature = -1;
  float threshold = 0.0f;
  double gain = 0.0;
};

BestSplit FindBestSplitNaive(const data::Dataset& dataset,
                             const std::vector<double>& targets,
                             const std::vector<size_t>& indices,
                             size_t min_samples_leaf, double min_gain) {
  BestSplit best;
  const size_t n = indices.size();
  if (n < 2 * min_samples_leaf) return best;

  double total_sum = 0.0;
  for (size_t idx : indices) total_sum += targets[idx];

  std::vector<Entry> entries(n);
  for (size_t f = 0; f < dataset.num_features(); ++f) {
    for (size_t i = 0; i < n; ++i) {
      entries[i] = {dataset.At(indices[i], f), targets[indices[i]]};
    }
    // Stable: value ties keep `indices` (ascending-row) order — the
    // accumulation-order contract the presorted engine reproduces.
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) { return a.value < b.value; });
    if (entries.front().value == entries.back().value) continue;

    // SSE(parent) - SSE(children) = sum_l^2/n_l + sum_r^2/n_r - sum^2/n.
    const double parent_term =
        total_sum * total_sum / static_cast<double>(n);
    double left_sum = 0.0;
    for (size_t i = 0; i + 1 < n; ++i) {
      left_sum += entries[i].target;
      if (entries[i].value == entries[i + 1].value) continue;
      const size_t left_count = i + 1;
      const size_t right_count = n - left_count;
      if (left_count < min_samples_leaf || right_count < min_samples_leaf) continue;
      const double right_sum = total_sum - left_sum;
      const double gain = left_sum * left_sum / static_cast<double>(left_count) +
                          right_sum * right_sum / static_cast<double>(right_count) -
                          parent_term;
      if (gain > min_gain && gain > best.gain) {
        float threshold =
            entries[i].value + (entries[i + 1].value - entries[i].value) * 0.5f;
        if (threshold >= entries[i + 1].value) threshold = entries[i].value;
        best.feature = static_cast<int>(f);
        best.threshold = threshold;
        best.gain = gain;
      }
    }
  }
  return best;
}

}  // namespace

namespace {

Status ValidateRegressionInputs(const data::Dataset& dataset,
                                const std::vector<double>& targets,
                                const RegressionTreeConfig& config) {
  TREEWM_RETURN_IF_ERROR(config.Validate());
  if (dataset.num_rows() == 0) {
    return Status::InvalidArgument("cannot fit on an empty dataset");
  }
  if (targets.size() != dataset.num_rows()) {
    return Status::InvalidArgument(
        StrFormat("targets size %zu != rows %zu", targets.size(),
                  dataset.num_rows()));
  }
  return Status::OK();
}

/// Histogram-mode grower: same DFS shape and expansion gates as the exact
/// engine (so node numbering matches when every gain agrees), but per split
/// only the smaller child is accumulated from rows; the sibling's histogram
/// and target sum come from parent-minus-child subtraction.
Status GrowHistogramRegressionNodes(const data::Dataset& dataset,
                                    const std::vector<double>& targets,
                                    const RegressionTreeConfig& config,
                                    const tree::BinnedColumns* binned,
                                    std::vector<RegressionNode>* nodes) {
  std::vector<int> features(dataset.num_features());
  for (size_t j = 0; j < dataset.num_features(); ++j) {
    features[j] = static_cast<int>(j);
  }
  tree::HistogramCore core(*binned, features);
  const double* target_of = targets.data();
  const size_t n = dataset.num_rows();

  using Buffer = std::vector<tree::SseHistBin>;
  std::vector<std::unique_ptr<Buffer>> free_buffers;
  auto take_buffer = [&]() -> std::unique_ptr<Buffer> {
    if (!free_buffers.empty()) {
      std::unique_ptr<Buffer> buffer = std::move(free_buffers.back());
      free_buffers.pop_back();
      return buffer;
    }
    return std::make_unique<Buffer>();
  };
  auto recycle = [&](std::unique_ptr<Buffer> buffer) {
    if (buffer != nullptr) free_buffers.push_back(std::move(buffer));
  };

  const tree::HistogramCore::SseSweepConfig sweep{config.min_samples_leaf,
                                                  config.min_gain};

  /// split.feature == -1 marks a settled leaf; its hist is null.
  struct Frame {
    int node;
    int depth;
    size_t begin;
    size_t end;
    double sum;  // node target sum, carried down by subtraction
    std::unique_ptr<Buffer> hist;
    tree::HistSseSplit split;
  };

  nodes->push_back(RegressionNode{});
  double root_sum = 0.0;
  for (size_t i = 0; i < n; ++i) root_sum += target_of[i];

  Frame root{0, 0, 0, n, root_sum, nullptr, {}};
  if (0 < config.max_depth && n >= 2 * config.min_samples_leaf) {
    root.hist = take_buffer();
    core.SseOp(sweep, target_of, root.hist.get(), /*parent=*/nullptr, 0, n,
               {root_sum, n}, {}, /*sweep_fresh=*/true,
               /*sweep_remainder=*/false, &root.split, nullptr);
    if (root.split.feature == -1) recycle(std::move(root.hist));
  }

  std::vector<Frame> stack;
  stack.push_back(std::move(root));

  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    const size_t count = frame.end - frame.begin;

    if (frame.split.feature == -1) {
      (*nodes)[static_cast<size_t>(frame.node)].value =
          frame.sum / static_cast<double>(count);
      continue;
    }

    const size_t mid = core.ApplySplit(frame.begin, frame.end,
                                       frame.split.feature,
                                       frame.split.split_bin);
    assert(mid == frame.begin + frame.split.left_count);

    const double left_sum = frame.split.left_sum;
    const double right_sum = frame.sum - left_sum;
    const size_t left_count = frame.split.left_count;
    const size_t right_count = count - left_count;

    const int left = static_cast<int>(nodes->size());
    nodes->push_back(RegressionNode{});
    const int right = static_cast<int>(nodes->size());
    nodes->push_back(RegressionNode{});
    RegressionNode& node = (*nodes)[static_cast<size_t>(frame.node)];
    node.feature = frame.split.feature;
    node.threshold = frame.split.threshold;
    node.left = left;
    node.right = right;

    const int child_depth = frame.depth + 1;
    const bool sweep_left = child_depth < config.max_depth &&
                            left_count >= 2 * config.min_samples_leaf;
    const bool sweep_right = child_depth < config.max_depth &&
                             right_count >= 2 * config.min_samples_leaf;

    Frame left_frame{left, child_depth, frame.begin, mid, left_sum, nullptr, {}};
    Frame right_frame{right, child_depth, mid, frame.end, right_sum, nullptr, {}};

    if (sweep_left || sweep_right) {
      const bool left_small = left_count <= right_count;
      std::unique_ptr<Buffer> fresh = take_buffer();
      tree::HistSseSplit best_fresh;
      tree::HistSseSplit best_remainder;
      if (left_small) {
        core.SseOp(sweep, target_of, fresh.get(), frame.hist.get(),
                   frame.begin, mid, {left_sum, left_count},
                   {right_sum, right_count}, sweep_left, sweep_right,
                   &best_fresh, &best_remainder);
        left_frame.hist = std::move(fresh);
        left_frame.split = best_fresh;
        right_frame.hist = std::move(frame.hist);
        right_frame.split = best_remainder;
      } else {
        core.SseOp(sweep, target_of, fresh.get(), frame.hist.get(), mid,
                   frame.end, {right_sum, right_count}, {left_sum, left_count},
                   sweep_right, sweep_left, &best_fresh, &best_remainder);
        right_frame.hist = std::move(fresh);
        right_frame.split = best_fresh;
        left_frame.hist = std::move(frame.hist);
        left_frame.split = best_remainder;
      }
    }
    // Settled leaves drop their buffers before being pushed.
    if (left_frame.split.feature == -1) recycle(std::move(left_frame.hist));
    if (right_frame.split.feature == -1) recycle(std::move(right_frame.hist));
    recycle(std::move(frame.hist));  // null unless both children went leaf

    // Same push order as the exact DFS, so pop order — and with it node
    // numbering — lines up.
    stack.push_back(std::move(left_frame));
    stack.push_back(std::move(right_frame));
  }
  return Status::OK();
}

}  // namespace

Result<RegressionTree> RegressionTree::Fit(const data::Dataset& dataset,
                                           const std::vector<double>& targets,
                                           const RegressionTreeConfig& config,
                                           const tree::SortedColumns* sorted,
                                           const tree::BinnedColumns* binned) {
  TREEWM_RETURN_IF_ERROR(ValidateRegressionInputs(dataset, targets, config));

  if (config.trainer_mode == tree::TrainerMode::kHistogram) {
    if (sorted != nullptr) {
      return Status::InvalidArgument(
          "histogram trainer mode takes binned columns, not sorted columns");
    }
    std::shared_ptr<const tree::BinnedColumns> owned_binned;
    if (binned == nullptr) {
      TREEWM_ASSIGN_OR_RETURN(
          owned_binned,
          tree::BinnedColumns::Build(dataset, tree::BinnedOptions{config.max_bins},
                                     &ThreadPool::Global()));
      binned = owned_binned.get();
    }
    TREEWM_RETURN_IF_ERROR(tree::ValidateBinnedMatch(binned, dataset));
    RegressionTree tree;
    tree.num_features_ = dataset.num_features();
    TREEWM_RETURN_IF_ERROR(GrowHistogramRegressionNodes(
        dataset, targets, config, binned, &tree.nodes_));
    return tree;
  }
  if (binned != nullptr) {
    return Status::InvalidArgument(
        "binned columns passed but trainer_mode is exact");
  }
  TREEWM_RETURN_IF_ERROR(tree::ValidateColumnsMatch(sorted, dataset));

  std::shared_ptr<const tree::SortedColumns> owned_sorted;
  if (sorted == nullptr) {
    owned_sorted = tree::SortedColumns::Build(dataset, &ThreadPool::Global());
    sorted = owned_sorted.get();
  }
  std::vector<int> features(dataset.num_features());
  for (size_t j = 0; j < dataset.num_features(); ++j) features[j] = static_cast<int>(j);
  // The identity column keeps each node's members in ascending row order so
  // per-node target sums accumulate exactly as the reference's index loop.
  tree::TrainerCore core(*sorted, features, /*with_identity=*/true);

  RegressionTree tree;
  tree.num_features_ = dataset.num_features();
  const double* target_of = targets.data();

  struct Frame {
    int node;
    int depth;
    size_t begin;
    size_t end;
  };
  tree.nodes_.push_back(RegressionNode{});
  std::vector<Frame> stack{{0, 0, 0, dataset.num_rows()}};

  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const size_t count = frame.end - frame.begin;

    double sum = 0.0;
    for (const tree::ColumnEntry& e : core.Members(frame.begin, frame.end)) {
      sum += target_of[e.row];
    }
    const double mean = sum / static_cast<double>(count);

    tree::RegressionSplitCandidate split;
    if (frame.depth < config.max_depth && count >= 2 * config.min_samples_leaf) {
      const double parent_term = sum * sum / static_cast<double>(count);
      for (size_t slot = 0; slot < core.num_slots(); ++slot) {
        BestSseSplitOnColumn(core.Column(slot, frame.begin, frame.end),
                             core.feature_at(slot), target_of, sum, parent_term,
                             config.min_samples_leaf, config.min_gain, &split);
      }
    }
    if (split.feature == -1) {
      tree.nodes_[static_cast<size_t>(frame.node)].value = mean;
      continue;
    }

    const size_t mid = core.ApplySplit(frame.begin, frame.end,
                                       core.SlotOf(split.feature), split.left_count);
    assert(mid > frame.begin && mid < frame.end);

    const int left = static_cast<int>(tree.nodes_.size());
    tree.nodes_.push_back(RegressionNode{});
    const int right = static_cast<int>(tree.nodes_.size());
    tree.nodes_.push_back(RegressionNode{});
    RegressionNode& node = tree.nodes_[static_cast<size_t>(frame.node)];
    node.feature = split.feature;
    node.threshold = split.threshold;
    node.left = left;
    node.right = right;
    stack.push_back({left, frame.depth + 1, frame.begin, mid});
    stack.push_back({right, frame.depth + 1, mid, frame.end});
  }
  return tree;
}

Result<RegressionTree> RegressionTree::FitReference(
    const data::Dataset& dataset, const std::vector<double>& targets,
    const RegressionTreeConfig& config) {
  TREEWM_RETURN_IF_ERROR(ValidateRegressionInputs(dataset, targets, config));
  if (config.trainer_mode != tree::TrainerMode::kExact) {
    return Status::InvalidArgument(
        "the reference trainer is the exact-mode spec; it has no histogram mode");
  }

  RegressionTree tree;
  tree.num_features_ = dataset.num_features();

  struct Frame {
    int node;
    int depth;
    std::vector<size_t> indices;
  };
  std::vector<size_t> root_indices(dataset.num_rows());
  for (size_t i = 0; i < dataset.num_rows(); ++i) root_indices[i] = i;
  tree.nodes_.push_back(RegressionNode{});
  std::vector<Frame> stack{{0, 0, std::move(root_indices)}};

  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();

    double sum = 0.0;
    for (size_t idx : frame.indices) sum += targets[idx];
    const double mean = sum / static_cast<double>(frame.indices.size());

    BestSplit split;
    if (frame.depth < config.max_depth) {
      split = FindBestSplitNaive(dataset, targets, frame.indices,
                                 config.min_samples_leaf, config.min_gain);
    }
    if (split.feature == -1) {
      tree.nodes_[static_cast<size_t>(frame.node)].value = mean;
      continue;
    }

    std::vector<size_t> left_indices;
    std::vector<size_t> right_indices;
    for (size_t idx : frame.indices) {
      if (dataset.At(idx, static_cast<size_t>(split.feature)) <= split.threshold) {
        left_indices.push_back(idx);
      } else {
        right_indices.push_back(idx);
      }
    }
    assert(!left_indices.empty() && !right_indices.empty());

    const int left = static_cast<int>(tree.nodes_.size());
    tree.nodes_.push_back(RegressionNode{});
    const int right = static_cast<int>(tree.nodes_.size());
    tree.nodes_.push_back(RegressionNode{});
    RegressionNode& node = tree.nodes_[static_cast<size_t>(frame.node)];
    node.feature = split.feature;
    node.threshold = split.threshold;
    node.left = left;
    node.right = right;
    stack.push_back({left, frame.depth + 1, std::move(left_indices)});
    stack.push_back({right, frame.depth + 1, std::move(right_indices)});
  }
  return tree;
}

double RegressionTree::Predict(std::span<const float> row) const {
  return nodes_[static_cast<size_t>(LeafIndexFor(row))].value;
}

int RegressionTree::LeafIndexFor(std::span<const float> row) const {
  assert(row.size() == num_features_);
  int node = 0;
  while (nodes_[static_cast<size_t>(node)].feature != -1) {
    const RegressionNode& n = nodes_[static_cast<size_t>(node)];
    node = row[static_cast<size_t>(n.feature)] <= n.threshold ? n.left : n.right;
  }
  return node;
}

Status RegressionTree::SetLeafValue(int node, double value) {
  if (node < 0 || static_cast<size_t>(node) >= nodes_.size()) {
    return Status::InvalidArgument("node index out of range");
  }
  if (nodes_[static_cast<size_t>(node)].feature != -1) {
    return Status::InvalidArgument("node is not a leaf");
  }
  nodes_[static_cast<size_t>(node)].value = value;
  return Status::OK();
}

int RegressionTree::Depth() const {
  int max_depth = 0;
  std::vector<std::pair<int, int>> stack{{0, 0}};
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    const RegressionNode& n = nodes_[static_cast<size_t>(node)];
    if (n.feature == -1) {
      max_depth = std::max(max_depth, depth);
    } else {
      stack.push_back({n.left, depth + 1});
      stack.push_back({n.right, depth + 1});
    }
  }
  return max_depth;
}

size_t RegressionTree::NumLeaves() const {
  size_t leaves = 0;
  for (const RegressionNode& n : nodes_) {
    if (n.feature == -1) ++leaves;
  }
  return leaves;
}

}  // namespace treewm::boosting
