// Workload `dispute`: time-to-verdict for the authority (§3.2).
//
// Set-up trains a watermarked mnist2-6-like suspect from a seed-drawn
// sample of one fixed mnist2-6-like population, loads it as the only model
// of a ModelRegistry and serves it through a SocketServer with default
// serving options. The authority then runs a closed loop of verdicts on the
// owner's request (trigger set hidden among seed-drawn decoys): each round
// verifies once in-process through ForestBlackBox and once over loopback
// through the pipelined wire adapter, with the same shuffle seed, and
// checks that both reports are identical and positive.

#include <algorithm>
#include <optional>

#include "core/verification.h"
#include "core/watermark.h"
#include "data/synthetic.h"
#include "harness.h"
#include "predict/flat_ensemble.h"
#include "serve/registry/model_registry.h"
#include "serve/wire/socket_server.h"
#include "wire_black_box.h"

namespace treewm::e2e {
namespace {

constexpr uint64_t kPopulationSeed = 45;
constexpr size_t kPopulationRows = 3000;
constexpr size_t kTrainRows = 1000;
constexpr size_t kDecoyRows = 780;
constexpr size_t kSignatureBits = 32;
/// Every kCheckEvery-th round (and the first) copies the wire batch and
/// answer for a vote-by-vote check against the engine; those rounds are
/// left out of the timing samples.
constexpr uint64_t kCheckEvery = 16;
constexpr const char* kModelId = "suspect";

/// The in-process suspect, with a span around the one call the protocol
/// makes into the predict engine.
class TimedForestBlackBox : public core::ForestBlackBox {
 public:
  TimedForestBlackBox(const forest::RandomForest& forest, Tracer* tracer)
      : core::ForestBlackBox(forest), tracer_(tracer) {}
  predict::VoteMatrix QueryPredictAllVotes(const data::Dataset& batch) const override {
    Tracer::Scope span(tracer_, "predict.query");
    return core::ForestBlackBox::QueryPredictAllVotes(batch);
  }

 private:
  Tracer* tracer_;
};

struct DisputeState {
  std::optional<core::WatermarkedModel> owner;
  data::Dataset decoys;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::wire::SocketServer> server;
  std::unique_ptr<PipelinedWireModel> wire;

  /// Releases everything, server before the registry it borrows.
  void Stop() {
    wire.reset();
    server.reset();
    registry.reset();
  }
};

Status BuildState(uint64_t seed, DisputeState* state) {
  const data::Dataset population =
      data::synthetic::MakeMnist26Like(kPopulationSeed, kPopulationRows);
  Rng rng(StreamSeed(seed, 4));
  std::vector<size_t> rows = DrawRows(population.num_rows(), kTrainRows + kDecoyRows, &rng);
  rng.Shuffle(&rows);
  const data::Dataset train =
      population.Subset({rows.begin(), rows.begin() + kTrainRows});
  state->decoys = population.Subset({rows.begin() + kTrainRows, rows.end()});

  core::WatermarkConfig config;
  config.seed = rng.NextUint64();
  config.skip_grid_search = true;
  config.trigger_fraction = 0.02;
  config.trigger_training.forest.tree.max_depth = 12;
  config.trigger_training.forest.feature_fraction = 0.10;
  const core::Signature sigma = core::Signature::Random(kSignatureBits, 0.5, &rng);
  TREEWM_ASSIGN_OR_RETURN(core::WatermarkedModel owner,
                          core::Watermarker(config).CreateWatermark(train, sigma));
  if (!owner.t0_converged || !owner.t1_converged) {
    return Status::FailedPrecondition("suspect watermark did not converge");
  }
  state->owner.emplace(std::move(owner));

  TREEWM_ASSIGN_OR_RETURN(state->registry,
                          serve::ModelRegistry::Create(serve::ModelRegistryOptions{}));
  TREEWM_RETURN_IF_ERROR(state->registry->Load(
      kModelId, std::make_shared<const predict::FlatEnsemble>(
                    predict::FlatEnsemble::FromClassificationTrees(
                        state->owner->model.trees()))));
  serve::wire::SocketServerOptions wire_options;
  wire_options.default_model = kModelId;
  TREEWM_ASSIGN_OR_RETURN(state->server,
                          serve::wire::SocketServer::Create(state->registry.get(), wire_options));
  TREEWM_ASSIGN_OR_RETURN(
      state->wire, PipelinedWireModel::Connect(state->server->port(), kModelId,
                                               kSignatureBits,
                                               wire_options.max_in_flight_per_connection));
  // Warm the lazy caches both paths hit on their first query (the forest's
  // flat image, the server's connection state).
  (void)state->owner->model.PredictAllVotes(state->decoys);  // discard ok: warm-up
  (void)state->wire->QueryPredictAllVotes(state->decoys);    // discard ok: warm-up
  return state->wire->status();
}

bool SameReport(const core::VerificationReport& a, const core::VerificationReport& b) {
  return a.verified == b.verified && a.matching_instances == b.matching_instances &&
         a.trigger_size == b.trigger_size && a.bit_match_rate == b.bit_match_rate &&
         a.control_match_rate == b.control_match_rate &&
         a.log10_p_value == b.log10_p_value && a.log10_bit_p_value == b.log10_bit_p_value;
}

}  // namespace

void RunDispute(const RunOptions& options, RunReport* out) {
  RunReport& report = *out;
  DisputeState state;
  Status built = Status::OK();
  const double setup_s = TimeSetup(
      kSetupRepetitions, [&] { built = BuildState(options.seed, &state); },
      [&] {
        state.Stop();
        state = DisputeState();
      });
  if (!built.ok()) {
    report.Fail("set-up: " + built.ToString());
    state.Stop();
    return;
  }
  const core::WatermarkedModel& owner = *state.owner;
  const core::VerificationRequest request{owner.signature, owner.trigger_set, state.decoys};

  Tracer tracer(options.trace);
  Tracer off(false);
  const double untraced_window = options.trace ? options.seconds / 3.0 : options.seconds;
  std::vector<double> inproc_ms, wire_ms, untraced_wire_ms, score_ms, query_ms, rows_per_s;
  std::vector<double> encode_ms, socket_ms, decode_ms, bytes, frames, stalls;
  const auto start = SteadyClock::now();
  for (uint64_t round = 0; SecondsSince(start) < options.seconds; ++round) {
    const bool traced = options.trace && SecondsSince(start) >= untraced_window;
    Tracer* t = traced ? &tracer : &off;
    const bool check = round % kCheckEvery == 0;
    const uint64_t shuffle_seed = StreamSeed(options.seed, 3, round);
    report.attempted += 2;

    TimedForestBlackBox local(owner.model, t);
    Rng local_rng(shuffle_seed);
    auto t0 = SteadyClock::now();
    Result<core::VerificationReport> inproc = [&] {
      Tracer::Scope span(t, "core.verify.inproc", round);
      return core::VerificationAuthority::Verify(local, request, &local_rng);
    }();
    const double inproc_op_ms = SecondsSince(t0) * 1e3;

    state.wire->set_capture(check);
    Rng wire_rng(shuffle_seed);
    t0 = SteadyClock::now();
    Result<core::VerificationReport> remote = [&] {
      Tracer::Scope span(t, "core.verify.wire", round);
      return core::VerificationAuthority::Verify(*state.wire, request, &wire_rng);
    }();
    const double wire_op_ms = SecondsSince(t0) * 1e3;

    if (!inproc.ok() || !remote.ok() || !state.wire->status().ok()) {
      report.failed += 2;
      report.Fail("verdict round " + std::to_string(round) + ": " +
                  (!inproc.ok()   ? inproc.status().ToString()
                   : !remote.ok() ? remote.status().ToString()
                                  : state.wire->status().ToString()));
      break;
    }
    if (!inproc.value().verified) {
      report.Fail("round " + std::to_string(round) + ": watermarked suspect not verified");
    }
    if (!SameReport(inproc.value(), remote.value())) {
      report.Fail("round " + std::to_string(round) + ": wire report differs from in-process");
    }
    if (check) {
      const predict::VoteMatrix engine =
          owner.model.PredictAllVotes(state.wire->captured_batch());
      const predict::VoteMatrix& served = state.wire->captured_votes();
      if (!std::equal(engine.data(), engine.data() + engine.num_rows() * engine.num_trees(),
                      served.data()) ||
          engine.num_rows() != served.num_rows()) {
        report.Fail("round " + std::to_string(round) + ": served votes differ from the engine");
      }
      continue;  // check rounds are not timing samples
    }
    if (!traced) {
      untraced_wire_ms.push_back(wire_op_ms);
      if (options.trace) continue;
      inproc_ms.push_back(inproc_op_ms);
      wire_ms.push_back(wire_op_ms);
      continue;
    }
    inproc_ms.push_back(inproc_op_ms);
    wire_ms.push_back(wire_op_ms);
    const std::vector<double> q = tracer.Durations("predict.query");
    query_ms.push_back(q.back() * 1e3);
    score_ms.push_back(inproc_op_ms - q.back() * 1e3);
    rows_per_s.push_back(static_cast<double>(request.trigger_set.num_rows() +
                                             request.test_set.num_rows()) /
                         q.back());
    const WireQueryStats& w = state.wire->last_stats();
    encode_ms.push_back(w.encode_s * 1e3);
    decode_ms.push_back(w.decode_s * 1e3);
    socket_ms.push_back((w.total_s - w.encode_s - w.decode_s) * 1e3);
    bytes.push_back(static_cast<double>(w.bytes));
    frames.push_back(static_cast<double>(w.frames));
    stalls.push_back(static_cast<double>(w.window_stalls));
  }

  state.wire.reset();
  ShutdownAndAccount(state.server.get(), state.registry.get(), &report, options.trace);

  const Tail inproc_tail = WindowedTail(inproc_ms);
  const Tail wire_tail = WindowedTail(wire_ms);
  const std::string n = "n=" + std::to_string(wire_ms.size());
  if (!options.trace) {
    report.metrics.Set("setup_s", setup_s);
    report.metrics.Set("peak_rss_mb", PeakRssMb());
    report.metrics.Set("op_p50_ms", WindowedMedian(wire_ms));
    report.notes.push_back(Note("verdict_inproc_p50_ms", WindowedMedian(inproc_ms), "ms", n));
    report.notes.push_back(Note("verdict_inproc_tail_ms", inproc_tail.value, "ms",
                                inproc_tail.Label() + " " + n));
    report.notes.push_back(Note("verdict_wire_p50_ms", WindowedMedian(wire_ms), "ms", n));
    report.notes.push_back(Note("verdict_wire_tail_ms", wire_tail.value, "ms",
                                wire_tail.Label() + " " + n));
    return;
  }
  MetricTable& m = report.metrics;
  m.Set("verdict.inproc_p50_ms", Median(inproc_ms));
  m.Set("verdict.inproc_tail_ms", inproc_tail.value);
  m.Set("verdict.wire_p50_ms", Median(wire_ms));
  m.Set("verdict.wire_tail_ms", wire_tail.value);
  m.Set("core.score_ms", Median(score_ms));
  m.Set("predict.query_ms", Median(query_ms));
  m.Set("predict.rows_per_s", Median(rows_per_s));
  m.Set("wire.encode_ms", Median(encode_ms));
  m.Set("wire.query_ms", Median(socket_ms));
  m.Set("wire.decode_ms", Median(decode_ms));
  m.Set("wire.bytes_per_verdict", Median(bytes));
  m.Set("wire.frames_per_verdict", Median(frames));
  m.Set("wire.window_stalls", Median(stalls));
  m.Set("trace.overhead_ms", Median(wire_ms) - Median(untraced_wire_ms));
  m.Set("trace.spans", static_cast<double>(tracer.spans().size()));
  tracer.WriteJsonLines(options.work_dir + "/spans-dispute-" + std::to_string(options.seed) +
                        ".jsonl");
}

}  // namespace treewm::e2e
