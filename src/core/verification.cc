#include "core/verification.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/string_util.h"

namespace treewm::core {

namespace {

/// Required tree output for a trigger instance with true label `y` under
/// signature bit `b`: correct when b = 0, flipped when b = 1.
int RequiredVote(int y, uint8_t b) { return b == 0 ? y : -y; }

}  // namespace

double Log10BinomialTail(size_t n, size_t k, double p) {
  if (k == 0) return 0.0;
  // More successes than trials is impossible. Without this guard the
  // max-shift below dereferences max_element of an empty `terms` vector —
  // undefined behavior.
  if (k > n) return -std::numeric_limits<double>::infinity();
  if (p <= 0.0) return -std::numeric_limits<double>::infinity();
  if (p >= 1.0) return 0.0;
  // log10 C(n,i) p^i (1-p)^(n-i), summed via max-shift for stability.
  std::vector<double> terms;
  double log10_p = std::log10(p);
  double log10_q = std::log10(1.0 - p);
  double log10_choose = 0.0;  // C(n,0)
  for (size_t i = 0; i <= n; ++i) {
    if (i >= k) {
      terms.push_back(log10_choose + static_cast<double>(i) * log10_p +
                      static_cast<double>(n - i) * log10_q);
    }
    // C(n,i+1) = C(n,i) * (n-i)/(i+1)
    log10_choose += std::log10(static_cast<double>(n - i)) -
                    std::log10(static_cast<double>(i + 1));
  }
  if (terms.empty()) return -std::numeric_limits<double>::infinity();
  const double max_term = *std::max_element(terms.begin(), terms.end());
  double sum = 0.0;
  for (double t : terms) sum += std::pow(10.0, t - max_term);
  return max_term + std::log10(sum);
}

predict::VoteMatrix BlackBoxModel::QueryPredictAllVotes(
    const data::Dataset& batch) const {
  predict::VoteMatrix out(batch.num_rows(), NumTrees());
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    const std::vector<int> votes = QueryPredictAll(batch.Row(i));
    int8_t* row = out.mutable_row(i);
    for (size_t t = 0; t < votes.size() && t < out.num_trees(); ++t) {
      row[t] = static_cast<int8_t>(votes[t]);
    }
  }
  return out;
}

Result<VerificationReport> VerificationAuthority::Verify(
    const BlackBoxModel& model, const VerificationRequest& request, Rng* rng) {
  const data::Dataset& trigger = request.trigger_set;
  const data::Dataset& decoys = request.test_set;
  if (trigger.num_rows() == 0) {
    return Status::InvalidArgument("empty trigger set");
  }
  if (trigger.num_features() != decoys.num_features()) {
    return Status::InvalidArgument("trigger/test feature mismatch");
  }
  const size_t m = request.signature.length();
  if (model.NumTrees() != m) {
    return Status::InvalidArgument(
        StrFormat("suspect model has %zu trees, signature has %zu bits",
                  model.NumTrees(), m));
  }

  // Build the disguised batch: trigger rows hidden among the decoys in a
  // random order, so the suspect cannot identify and special-case them.
  struct BatchRow {
    bool is_trigger;
    size_t source_row;
  };
  std::vector<BatchRow> batch;
  batch.reserve(trigger.num_rows() + decoys.num_rows());
  for (size_t i = 0; i < trigger.num_rows(); ++i) batch.push_back({true, i});
  for (size_t i = 0; i < decoys.num_rows(); ++i) batch.push_back({false, i});
  rng->Shuffle(&batch);

  // Materialize the disguised batch and query the suspect once; a batched
  // implementation answers all rows through the flat-inference engine. The
  // batch carries a CONSTANT placeholder label: the suspect is untrusted,
  // and true labels (especially the triggers' expected responses) must
  // never cross the black-box boundary. Scoring below reads labels from
  // the sources, not from this dataset.
  data::Dataset disguised(trigger.num_features());
  disguised.Reserve(batch.size());
  for (const BatchRow& row : batch) {
    const data::Dataset& source = row.is_trigger ? trigger : decoys;
    TREEWM_RETURN_IF_ERROR(
        disguised.AddRow(source.Row(row.source_row), data::kPositive));
  }
  const predict::VoteMatrix all_votes = model.QueryPredictAllVotes(disguised);
  // The suspect is untrusted: score only an answer of the shape asked for.
  if (all_votes.num_rows() != batch.size() || all_votes.num_trees() != m) {
    return Status::InvalidArgument(StrFormat(
        "suspect answered a %zu x %zu vote matrix for a %zu-row batch over %zu trees",
        all_votes.num_rows(), all_votes.num_trees(), batch.size(), m));
  }

  VerificationReport report;
  report.trigger_size = trigger.num_rows();

  size_t trigger_bit_matches = 0;
  size_t control_bit_matches = 0;
  size_t control_bits = 0;
  for (size_t b = 0; b < batch.size(); ++b) {
    const BatchRow& row = batch[b];
    const data::Dataset& source = row.is_trigger ? trigger : decoys;
    const std::span<const int8_t> votes = all_votes.row(b);
    const int y = source.Label(row.source_row);
    size_t matches = 0;
    for (size_t t = 0; t < m; ++t) {
      if (votes[t] == RequiredVote(y, request.signature.bit(t))) ++matches;
    }
    if (row.is_trigger) {
      trigger_bit_matches += matches;
      if (matches == m) ++report.matching_instances;
    } else {
      control_bit_matches += matches;
      control_bits += m;
    }
  }

  report.verified = report.matching_instances == trigger.num_rows();
  report.bit_match_rate = static_cast<double>(trigger_bit_matches) /
                          static_cast<double>(trigger.num_rows() * m);
  report.control_match_rate =
      control_bits == 0
          ? 0.5
          : static_cast<double>(control_bit_matches) / static_cast<double>(control_bits);

  // Null model: each tree matches its required bit independently with
  // probability control_match_rate, so a full m-bit pattern matches with
  // probability control_match_rate^m.
  const double p_instance =
      std::pow(std::clamp(report.control_match_rate, 1e-9, 1.0 - 1e-9),
               static_cast<double>(m));
  report.log10_p_value = Log10BinomialTail(trigger.num_rows(),
                                           report.matching_instances, p_instance);
  report.log10_bit_p_value =
      Log10BinomialTail(trigger.num_rows() * m, trigger_bit_matches,
                        std::clamp(report.control_match_rate, 1e-9, 1.0 - 1e-9));
  return report;
}

}  // namespace treewm::core
