// Workload `embed`: time-to-watermark (Algorithm 1) on ijcnn1-like data.
//
// Each operation draws a fresh train/test sample from one fixed ijcnn1-like
// population, a random signature and a watermark seed (all from --seed and
// the operation index), runs Watermarker::CreateWatermark with grid search
// on, then verifies the new model in-process and scores it on the held-out
// rows. The traced run replays the same embed stage by stage through the
// public calls, in CreateWatermark's RNG draw order, and checks that the
// replayed model votes exactly like the direct one.

#include <algorithm>
#include <cmath>

#include "core/train_with_trigger.h"
#include "core/verification.h"
#include "core/watermark.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "forest/grid_search.h"
#include "harness.h"

namespace treewm::e2e {
namespace {

constexpr uint64_t kPopulationSeed = 47;
constexpr size_t kPopulationRows = 20000;
constexpr size_t kTrainRows = 1000;
constexpr size_t kTestRows = 400;
constexpr size_t kSignatureBits = 16;

core::WatermarkConfig EmbedConfig(uint64_t seed) {
  core::WatermarkConfig config;
  config.seed = seed;
  config.grid.max_depth_grid = {8, 12, -1};
  config.grid.num_folds = 3;
  config.trigger_fraction = 0.02;
  config.trigger_training.forest.feature_fraction = 0.4;
  // Above the library's 150: about one draw in 130 needs more rounds, and a
  // workload whose operations fail by chance measures nothing steadily.
  config.trigger_training.max_boost_rounds = 600;
  return config;
}

struct EmbedInput {
  data::Dataset train;
  data::Dataset test;
  core::Signature sigma;
  core::WatermarkConfig config;
};

EmbedInput DrawInput(const data::Dataset& population, uint64_t seed, uint64_t op) {
  Rng rng(StreamSeed(seed, /*stream=*/1, op));
  std::vector<size_t> rows = DrawRows(population.num_rows(), kTrainRows + kTestRows, &rng);
  rng.Shuffle(&rows);
  const std::vector<size_t> train_rows(rows.begin(), rows.begin() + kTrainRows);
  const std::vector<size_t> test_rows(rows.begin() + kTrainRows, rows.end());
  core::Signature sigma = core::Signature::Random(kSignatureBits, 0.5, &rng);
  return EmbedInput{population.Subset(train_rows), population.Subset(test_rows),
                    std::move(sigma), EmbedConfig(rng.NextUint64())};
}

/// CreateWatermark, stage by stage through the public calls, in its RNG
/// draw order. Each stage is one span.
Result<forest::RandomForest> ReplayEmbed(const EmbedInput& in, Tracer* tracer) {
  const core::WatermarkConfig& config = in.config;
  const size_t m = in.sigma.length();
  Rng rng(config.seed);

  tree::TreeConfig tuned;
  {
    Tracer::Scope span(tracer, "forest.grid_search");
    forest::GridSearchConfig grid = config.grid;
    grid.forest_template = config.trigger_training.forest;
    grid.seed = rng.NextUint64();
    TREEWM_ASSIGN_OR_RETURN(forest::GridSearchOutcome outcome,
                            forest::GridSearch(in.train, m, grid));
    tuned = outcome.best;
  }
  const size_t k = std::max<size_t>(
      1, static_cast<size_t>(std::llround(config.trigger_fraction *
                                          static_cast<double>(in.train.num_rows()))));
  std::vector<size_t> trigger;
  {
    Tracer::Scope span(tracer, "data.sample_trigger");
    TREEWM_ASSIGN_OR_RETURN(trigger, data::SampleTriggerIndices(in.train, k, &rng));
  }
  tree::TreeConfig adjusted;
  {
    Tracer::Scope span(tracer, "core.adjust");
    TREEWM_ASSIGN_OR_RETURN(adjusted, core::Watermarker::AdjustHyperparameters(
                                          in.train, tuned, config.trigger_training.forest,
                                          m, rng.NextUint64(), k));
  }
  core::TriggerTrainingConfig t0_config = config.trigger_training;
  t0_config.forest.tree = adjusted;
  const size_t m_zero = in.sigma.NumZeros();
  std::vector<tree::DecisionTree> t0_trees;
  std::vector<tree::DecisionTree> t1_trees;
  if (m_zero > 0) {
    Tracer::Scope span(tracer, "core.t0");
    t0_config.forest.num_trees = m_zero;
    t0_config.forest.seed = rng.NextUint64();
    TREEWM_ASSIGN_OR_RETURN(core::TriggerTrainingResult t0,
                            core::TrainWithTrigger(in.train, trigger, t0_config));
    t0_trees = t0.forest.trees();
  }
  if (m - m_zero > 0) {
    Tracer::Scope span(tracer, "core.t1");
    data::Dataset flipped = in.train;
    for (size_t idx : trigger) flipped.SetLabel(idx, -in.train.Label(idx));
    core::TriggerTrainingConfig t1_config = t0_config;
    t1_config.forest.num_trees = m - m_zero;
    t1_config.forest.seed = rng.NextUint64();
    TREEWM_ASSIGN_OR_RETURN(core::TriggerTrainingResult t1,
                            core::TrainWithTrigger(flipped, trigger, t1_config));
    t1_trees = t1.forest.trees();
  }
  Tracer::Scope span(tracer, "forest.from_trees");
  std::vector<tree::DecisionTree> interleaved;
  size_t next0 = 0;
  size_t next1 = 0;
  for (size_t i = 0; i < m; ++i) {
    interleaved.push_back(in.sigma.bit(i) == 0 ? t0_trees[next0++] : t1_trees[next1++]);
  }
  return forest::RandomForest::FromTrees(std::move(interleaved));
}

bool SameVotes(const predict::VoteMatrix& a, const predict::VoteMatrix& b) {
  return a.num_rows() == b.num_rows() && a.num_trees() == b.num_trees() &&
         std::equal(a.data(), a.data() + a.num_rows() * a.num_trees(), b.data());
}

double MajorityShare(const data::Dataset& d) {
  const double pos = d.PositiveFraction();
  return std::max(pos, 1.0 - pos);
}

}  // namespace

void RunEmbed(const RunOptions& options, RunReport* out) {
  RunReport& report = *out;
  data::Dataset population;
  const double setup_s = TimeSetup(kSetupRepetitions, [&] {
    population = data::synthetic::MakeIjcnn1Like(kPopulationSeed, kPopulationRows);
  }, [&] { population = data::Dataset(); });

  Tracer tracer(options.trace);
  Tracer off(false);
  // The traced run spends its first third untraced, for the overhead figure.
  const double untraced_window = options.trace ? options.seconds / 3.0 : options.seconds;
  std::vector<double> untraced_ms, traced_ms, accuracies, majority_shares, residual_s, stage_sum_s,
      fit_ms_per_round, t0_rounds, t1_rounds;
  uint64_t nonconverged = 0;
  const auto start = SteadyClock::now();
  for (uint64_t op = 0; SecondsSince(start) < options.seconds; ++op) {
    const bool traced = options.trace && SecondsSince(start) >= untraced_window;
    const EmbedInput in = DrawInput(population, options.seed, op);
    ++report.attempted;

    Tracer* t = traced ? &tracer : &off;
    Tracer::Scope op_span(t, "embed.op", op);
    const auto t0 = SteadyClock::now();
    Result<core::WatermarkedModel> created = [&] {
      Tracer::Scope span(t, "core.create_watermark", op);
      return core::Watermarker(in.config).CreateWatermark(in.train, in.sigma);
    }();
    const double op_ms = SecondsSince(t0) * 1e3;
    if (!created.ok()) {
      ++report.failed;
      report.Fail("CreateWatermark: " + created.status().ToString());
      break;
    }
    const core::WatermarkedModel& wm = created.value();
    (traced ? traced_ms : untraced_ms).push_back(op_ms);
    const bool converged = wm.t0_converged && wm.t1_converged;
    if (!converged) {
      ++report.failed;  // deterministic per (seed, op)
      ++nonconverged;
    }
    t0_rounds.push_back(static_cast<double>(wm.t0_boost_rounds));
    t1_rounds.push_back(static_cast<double>(wm.t1_boost_rounds));

    accuracies.push_back(wm.model.Accuracy(in.test));
    majority_shares.push_back(MajorityShare(in.test));

    // The owner's fresh watermark must verify (converged embeds only).
    core::ForestBlackBox suspect(wm.model);
    core::VerificationRequest request{in.sigma, wm.trigger_set, in.test};
    Rng shuffle(StreamSeed(options.seed, 2, op));
    Result<core::VerificationReport> verdict = [&] {
      Tracer::Scope span(t, "core.verify", op);
      return core::VerificationAuthority::Verify(suspect, request, &shuffle);
    }();
    if (!verdict.ok()) {
      report.Fail("Verify: " + verdict.status().ToString());
    } else if (converged && !verdict.value().verified) {
      report.Fail("embed op " + std::to_string(op) + ": converged watermark did not verify");
    }

    if (traced) {
      const size_t first = tracer.spans().size();
      Result<forest::RandomForest> replayed = [&] {
        Tracer::Scope span(&tracer, "embed.replay", op);
        return ReplayEmbed(in, &tracer);
      }();
      if (!replayed.ok()) {
        report.Fail("replay: " + replayed.status().ToString());
      } else if (!SameVotes(replayed.value().PredictAllVotes(in.test),
                            wm.model.PredictAllVotes(in.test))) {
        report.Fail("embed op " + std::to_string(op) + ": replayed stages vote differently");
      }
      double stages = 0, loops = 0;
      for (size_t s = first; s < tracer.spans().size(); ++s) {
        const Tracer::Span& span = tracer.spans()[s];
        const double d = static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
        if (span.name == "embed.replay") continue;
        if (span.name == "core.t0" || span.name == "core.t1") loops += d;
        if (tracer.spans()[static_cast<size_t>(span.parent)].name == "embed.replay") {
          stages += d;
        }
      }
      stage_sum_s.push_back(stages);
      residual_s.push_back(op_ms * 1e-3 - stages);
      fit_ms_per_round.push_back(
          loops * 1e3 /
          static_cast<double>(wm.t0_boost_rounds + wm.t1_boost_rounds + 2));
    }
  }

  // Quality floor: on average the watermarked models must beat always
  // answering the majority class (single small samples sometimes do not).
  if (!(Mean(accuracies) > Mean(majority_shares))) {
    report.Fail("watermarked models no better than the majority class on average");
  }
  if (!options.trace) {
    const Tail tail = WindowedTail(untraced_ms);
    report.metrics.Set("setup_s", setup_s);
    report.metrics.Set("peak_rss_mb", PeakRssMb());
    report.metrics.Set("op_p50_ms", Median(untraced_ms));
    const std::string n = "n=" + std::to_string(untraced_ms.size());
    report.notes.push_back(Note("embed_s", Median(untraced_ms) * 1e-3, "s", "p50 " + n));
    report.notes.push_back(Note("embed_tail_s", tail.value * 1e-3, "s",
                                tail.Label() + " " + n));
    report.notes.push_back(Note("embed_accuracy", Mean(accuracies), "ratio", n));
    report.notes.push_back(Note("nonconverged", static_cast<double>(nonconverged), "count", n));
    return;
  }
  MetricTable& m = report.metrics;
  m.Set("forest.grid_search_s", Median(tracer.Durations("forest.grid_search")));
  m.Set("core.adjust_s", Median(tracer.Durations("core.adjust")));
  m.Set("core.t0_s", Median(tracer.Durations("core.t0")));
  m.Set("core.t1_s", Median(tracer.Durations("core.t1")));
  m.Set("core.t0_rounds", Median(t0_rounds));
  m.Set("core.t1_rounds", Median(t1_rounds));
  m.Set("core.nonconverged", static_cast<double>(nonconverged));
  m.Set("forest.fit_ms_per_round", Median(fit_ms_per_round));
  m.Set("core.verify_ms", Median(tracer.Durations("core.verify")) * 1e3);
  m.Set("embed.stage_sum_s", Median(stage_sum_s));
  m.Set("embed.residual_s", Median(residual_s));
  m.Set("embed.accuracy", Mean(accuracies));
  m.Set("embed.tail_ms", WindowedTail(traced_ms).value);
  m.Set("trace.overhead_ms", Median(traced_ms) - Median(untraced_ms));
  m.Set("trace.spans", static_cast<double>(tracer.spans().size()));
  tracer.WriteJsonLines(options.work_dir + "/spans-embed-" + std::to_string(options.seed) + ".jsonl");
}

}  // namespace treewm::e2e
