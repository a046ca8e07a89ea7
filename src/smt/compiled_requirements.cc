#include "smt/compiled_requirements.h"

#include <array>
#include <cassert>
#include <cmath>
#include <utility>

#include "common/string_util.h"
#include "predict/flat_ensemble.h"

namespace treewm::smt {

namespace {

/// Builds the watch lists of one bound kind (`bound` is constraint_lo or
/// constraint_hi). Entries are gathered in option order, sorted by the
/// bound's FloatKey with a stable LSD radix sort (four 8-bit digits), and
/// then distributed by feature with a stable counting pass, so each
/// feature's list ascends by (bound, option).
void BuildWatchLists(size_t num_features, std::span<const uint32_t> constraint_begin,
                     std::span<const int32_t> constraint_feature,
                     std::span<const double> bound,
                     CompiledRequirements::WatchLists* lists) {
  struct Item {
    uint32_t key;
    uint32_t option;
    uint32_t constraint;
  };
  std::vector<Item> items;
  items.reserve(bound.size());
  for (uint32_t o = 0; o + 1 < constraint_begin.size(); ++o) {
    for (uint32_t c = constraint_begin[o]; c < constraint_begin[o + 1]; ++c) {
      if (!std::isfinite(bound[c])) continue;
      const auto b = static_cast<float>(bound[c]);
      assert(static_cast<double>(b) == bound[c]);
      items.push_back({predict::FloatKey(b), o, c});
    }
  }

  std::vector<Item> scratch(items.size());
  for (uint32_t shift = 0; shift < 32; shift += 8) {
    std::array<uint32_t, 257> next{};
    for (const Item& item : items) ++next[((item.key >> shift) & 0xFFu) + 1];
    for (size_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];
    for (const Item& item : items) scratch[next[(item.key >> shift) & 0xFFu]++] = item;
    items.swap(scratch);
  }

  lists->begin.assign(num_features + 1, 0);
  for (const Item& item : items) {
    ++lists->begin[static_cast<size_t>(constraint_feature[item.constraint]) + 1];
  }
  for (size_t f = 0; f < num_features; ++f) lists->begin[f + 1] += lists->begin[f];
  std::vector<uint32_t> cursor(lists->begin.begin(), lists->begin.end() - 1);
  lists->entries.resize(items.size());
  for (const Item& item : items) {
    const auto f = static_cast<size_t>(constraint_feature[item.constraint]);
    lists->entries[cursor[f]++] = {static_cast<float>(bound[item.constraint]),
                                   item.option};
  }
}

}  // namespace

Result<std::shared_ptr<const CompiledRequirements>> CompiledRequirements::Compile(
    const forest::RandomForest& forest, const std::vector<uint8_t>& signature_bits,
    int target_label) {
  if (signature_bits.size() != forest.num_trees()) {
    return Status::InvalidArgument(
        StrFormat("signature has %zu bits but forest has %zu trees",
                  signature_bits.size(), forest.num_trees()));
  }
  if (target_label != +1 && target_label != -1) {
    return Status::InvalidArgument("target label must be +1 or -1");
  }
  auto arena = std::shared_ptr<CompiledRequirements>(new CompiledRequirements());
  arena->num_features_ = forest.num_features();
  arena->signature_bits_ = signature_bits;
  arena->target_label_ = target_label;

  arena->req_option_begin_.reserve(forest.num_trees() + 1);
  arena->req_option_begin_.push_back(0);
  arena->option_constraint_begin_.push_back(0);
  for (size_t r = 0; r < forest.num_trees(); ++r) {
    const int required = RequiredLabel(target_label, signature_bits[r]);
    forest.trees()[r].ForEachLeaf(
        [&](int, int label, std::span<const tree::DecisionTree::PathConstraint> box) {
          if (label != required) return;
          // The search keeps every alive option compatible with its box,
          // starting from the universal box; an empty leaf box is
          // incompatible even with that, and the naive search drops it
          // before branching too.
          for (const auto& c : box) {
            if (!(c.lo < c.hi)) return;
          }
          // ForEachLeaf hands each box over sorted by feature, one
          // constraint per tested feature. A tightening of feature f then
          // changes at most one constraint test per option.
          for (const auto& c : box) {
            arena->constraint_feature_.push_back(c.feature);
            arena->constraint_lo_.push_back(c.lo);
            arena->constraint_hi_.push_back(c.hi);
          }
          arena->option_requirement_.push_back(static_cast<uint32_t>(r));
          arena->option_constraint_begin_.push_back(
              static_cast<uint32_t>(arena->constraint_feature_.size()));
        });
    arena->req_option_begin_.push_back(
        static_cast<uint32_t>(arena->option_requirement_.size()));
  }

  BuildWatchLists(arena->num_features_, arena->option_constraint_begin_,
                  arena->constraint_feature_, arena->constraint_lo_,
                  &arena->watch_by_lo_);
  BuildWatchLists(arena->num_features_, arena->option_constraint_begin_,
                  arena->constraint_feature_, arena->constraint_hi_,
                  &arena->watch_by_hi_);
  return std::shared_ptr<const CompiledRequirements>(std::move(arena));
}

}  // namespace treewm::smt
