#include "core/train_with_trigger.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>

#include "common/logging.h"
#include "common/string_util.h"

namespace treewm::core {

namespace {

bool TreeMatchesTrigger(const tree::DecisionTree& tree, const data::Dataset& dataset,
                        const std::vector<size_t>& trigger_indices) {
  for (size_t idx : trigger_indices) {
    if (tree.Predict(dataset.Row(idx)) != dataset.Label(idx)) return false;
  }
  return true;
}

/// Algorithm 1 lines 6-8: every trigger weight starts at 1 and gains 1 per
/// round. Exact in double for any round count a loop can reach, so it equals
/// the linear loop's repeated += 1.0 bit for bit.
double TriggerWeightAt(size_t round) { return 1.0 + static_cast<double>(round); }

Status ValidateTriggerInputs(const data::Dataset& dataset,
                             const std::vector<size_t>& trigger_indices) {
  if (trigger_indices.empty()) {
    return Status::InvalidArgument("trigger set must be non-empty");
  }
  for (size_t idx : trigger_indices) {
    if (idx >= dataset.num_rows()) {
      return Status::InvalidArgument(StrFormat("trigger index %zu out of range", idx));
    }
  }
  return Status::OK();
}

void WarnNotConverged(const TriggerTrainingConfig& config) {
  LogWarning(StrFormat(
      "TrainWithTrigger: %zu rounds exhausted without full trigger agreement",
      config.max_boost_rounds));
}

}  // namespace

bool AllTreesMatchTrigger(const forest::RandomForest& forest,
                          const data::Dataset& dataset,
                          const std::vector<size_t>& trigger_indices) {
  return std::all_of(forest.trees().begin(), forest.trees().end(),
                     [&](const tree::DecisionTree& t) {
                       return TreeMatchesTrigger(t, dataset, trigger_indices);
                     });
}

namespace {

class SearchState;

/// One fit of a wave: tree `tree` of `search` at round `round`.
struct WaveFit {
  const SearchState* search;
  size_t tree;
  size_t round;
};

/// One trigger-weight search between waves. Invariant: some tree fails at
/// every round before next_.
class SearchState {
 public:
  SearchState(const TriggerSearch& search, forest::ForestTrainer trainer)
      : search_(&search),
        trainer_(std::move(trainer)),
        order_(trainer_.num_trees()),
        trees_(trainer_.num_trees()) {
    std::iota(order_.begin(), order_.end(), size_t{0});
  }

  /// Fits the next wave can use; 0 once the search has finished.
  size_t Demand() const {
    return phase_ == Phase::kLead ? last_round() - next_ + 1 : order_.size() - confirmed_;
  }

  /// Appends this search's next `slots` fits (at most Demand()).
  void Plan(size_t slots, std::vector<WaveFit>* wave) const {
    for (size_t i = 0; i < slots; ++i) {
      wave->push_back(phase_ == Phase::kLead
                          ? WaveFit{this, order_[0], next_ + i}
                          : WaveFit{this, order_[confirmed_ + i], round_});
    }
  }

  /// Runs one planned fit; safe to call concurrently.
  Result<tree::DecisionTree> Fit(const WaveFit& fit) const {
    std::vector<double> weights(search_->dataset.num_rows(), 1.0);
    for (size_t idx : search_->trigger_indices) weights[idx] = TriggerWeightAt(fit.round);
    return trainer_.Fit(fit.tree, weights);
  }

  /// Takes this search's trees of the last wave, in Plan order.
  void Absorb(std::span<tree::DecisionTree> fitted) {
    if (fitted.empty()) return;  // dealt no slot this wave
    tree_fits_ += fitted.size();
    if (phase_ == Phase::kLead) {
      const auto hit = std::find_if(fitted.begin(), fitted.end(),
                                    [&](const tree::DecisionTree& t) { return Matches(t); });
      if (hit == fitted.end()) {
        next_ += fitted.size();
        if (next_ > last_round()) StartLastRound();
        return;
      }
      phase_ = Phase::kConfirm;
      round_ = next_ + static_cast<size_t>(hit - fitted.begin());
      trees_[order_[0]] = std::move(*hit);
      confirmed_ = 1;
    } else {
      for (tree::DecisionTree& t : fitted) {
        if (phase_ == Phase::kConfirm && !Matches(t)) {
          // The first tree that fails at round_ leads from round_ + 1.
          std::rotate(order_.begin(), order_.begin() + confirmed_,
                      order_.begin() + confirmed_ + 1);
          phase_ = Phase::kLead;
          next_ = round_ + 1;
          if (next_ > last_round()) StartLastRound();
          return;
        }
        trees_[order_[confirmed_++]] = std::move(t);
      }
    }
  }

  /// The result once Demand() is 0.
  Result<TriggerTrainingResult> Finish() {
    const bool converged = phase_ == Phase::kConfirm;
    std::vector<tree::DecisionTree> trees;
    trees.reserve(trees_.size());
    for (std::optional<tree::DecisionTree>& t : trees_) trees.push_back(std::move(*t));
    TREEWM_ASSIGN_OR_RETURN(forest::RandomForest forest,
                            forest::RandomForest::FromTrees(std::move(trees)));
    TriggerTrainingResult result{std::move(forest)};
    result.boost_rounds = round_;
    result.converged = converged;
    result.final_trigger_weight = TriggerWeightAt(round_);
    result.tree_fits = tree_fits_;
    if (!converged) WarnNotConverged(search_->config);
    return result;
  }

 private:
  enum class Phase {
    kLead,     // the lead tree alone at rounds next_, next_ + 1, ...
    kConfirm,  // the other trees at round_, stopping at the first failure
    kLast,     // no round up to the cap matched: every tree at the cap
  };

  size_t last_round() const { return search_->config.max_boost_rounds; }

  bool Matches(const tree::DecisionTree& t) const {
    return TreeMatchesTrigger(t, search_->dataset, search_->trigger_indices);
  }

  /// The linear loop's answer when nothing converges: its last forest.
  void StartLastRound() {
    phase_ = Phase::kLast;
    round_ = last_round();
    confirmed_ = 0;
  }

  const TriggerSearch* search_;
  forest::ForestTrainer trainer_;
  Phase phase_ = Phase::kLead;
  std::vector<size_t> order_;  // fail-first: order_[0] is the lead
  size_t next_ = 0;
  size_t round_ = 0;
  size_t confirmed_ = 0;  // order_[0, confirmed_) hold their trees at round_
  std::vector<std::optional<tree::DecisionTree>> trees_;  // by tree id
  size_t tree_fits_ = 0;
};

}  // namespace

Result<TriggerTrainingResult> TrainWithTrigger(
    const data::Dataset& dataset, const std::vector<size_t>& trigger_indices,
    const TriggerTrainingConfig& config) {
  const TriggerSearch search{dataset, trigger_indices, config};
  TREEWM_ASSIGN_OR_RETURN(std::vector<TriggerTrainingResult> results,
                          TrainWithTriggerJointly({&search, 1}));
  return std::move(results.front());
}

Result<std::vector<TriggerTrainingResult>> TrainWithTriggerJointly(
    std::span<const TriggerSearch> searches,
    std::shared_ptr<const tree::SortedColumns> sorted) {
  ThreadPool* pool = searches.empty() ? nullptr : searches.front().config.forest.pool;
  std::vector<SearchState> states;
  states.reserve(searches.size());
  for (const TriggerSearch& search : searches) {
    TREEWM_RETURN_IF_ERROR(ValidateTriggerInputs(search.dataset, search.trigger_indices));
    if (search.config.forest.pool != pool) {
      return Status::InvalidArgument("joint trigger searches must share one pool");
    }
    TREEWM_ASSIGN_OR_RETURN(
        forest::ForestTrainer trainer,
        forest::ForestTrainer::Create(search.dataset, search.config.forest, sorted));
    states.emplace_back(search, std::move(trainer));
  }

  const size_t width = ParallelWidth(pool);
  std::vector<size_t> slots(states.size());
  std::vector<WaveFit> wave;
  for (;;) {
    // Deal the wave's slots round-robin, one at a time, to the searches
    // that still need fits.
    std::fill(slots.begin(), slots.end(), 0);
    size_t dealt = 0;
    for (bool more = true; more && dealt < width;) {
      more = false;
      for (size_t s = 0; s < states.size() && dealt < width; ++s) {
        if (slots[s] < states[s].Demand()) {
          ++slots[s];
          ++dealt;
          more = true;
        }
      }
    }
    if (dealt == 0) break;
    wave.clear();
    for (size_t s = 0; s < states.size(); ++s) states[s].Plan(slots[s], &wave);
    TREEWM_ASSIGN_OR_RETURN(std::vector<tree::DecisionTree> fitted,
                            forest::FitTrees(pool, wave.size(), [&](size_t i) {
                              return wave[i].search->Fit(wave[i]);
                            }));
    size_t offset = 0;
    for (size_t s = 0; s < states.size(); ++s) {
      states[s].Absorb(std::span(fitted).subspan(offset, slots[s]));
      offset += slots[s];
    }
  }

  std::vector<TriggerTrainingResult> results;
  results.reserve(states.size());
  for (SearchState& state : states) {
    TREEWM_ASSIGN_OR_RETURN(TriggerTrainingResult result, state.Finish());
    results.push_back(std::move(result));
  }
  return results;
}

Result<TriggerTrainingResult> TrainWithTriggerReference(
    const data::Dataset& dataset, const std::vector<size_t>& trigger_indices,
    const TriggerTrainingConfig& config) {
  TREEWM_RETURN_IF_ERROR(ValidateTriggerInputs(dataset, trigger_indices));

  std::vector<double> weights(dataset.num_rows(), 1.0);  // Algorithm 1 line 3
  double trigger_weight = 1.0;

  // Sample weights never change the per-feature sort order, so the column
  // sort is paid once here and shared across EVERY weight-boosting retrain.
  // Validate the forest config first so a bad config fails before the sort.
  TREEWM_RETURN_IF_ERROR(config.forest.Validate());
  const std::shared_ptr<const tree::SortedColumns> sorted =
      forest::BuildTrainingColumns(dataset, config.forest);

  forest::ForestConfig forest_config = config.forest;
  TREEWM_ASSIGN_OR_RETURN(
      forest::RandomForest model,
      forest::RandomForest::Fit(dataset, weights, forest_config, sorted));

  TriggerTrainingResult result{std::move(model)};
  result.tree_fits = forest_config.num_trees;
  for (size_t round = 0; round < config.max_boost_rounds; ++round) {
    if (AllTreesMatchTrigger(result.forest, dataset, trigger_indices)) {
      result.converged = true;
      result.final_trigger_weight = trigger_weight;
      return result;
    }
    // Algorithm 1 lines 6-8: bump every trigger weight, retrain everything.
    trigger_weight += 1.0;
    for (size_t idx : trigger_indices) weights[idx] = trigger_weight;
    ++result.boost_rounds;
    TREEWM_ASSIGN_OR_RETURN(
        result.forest,
        forest::RandomForest::Fit(dataset, weights, forest_config, sorted));
    result.tree_fits += forest_config.num_trees;
  }
  result.converged = AllTreesMatchTrigger(result.forest, dataset, trigger_indices);
  result.final_trigger_weight = trigger_weight;
  if (!result.converged) WarnNotConverged(config);
  return result;
}

}  // namespace treewm::core
