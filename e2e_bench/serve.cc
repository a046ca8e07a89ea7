// Workload `serve`: open-loop single-row traffic over the wire against a
// two-model registry.
//
// Set-up trains two 32-tree ijcnn1-like forests (`hot`, `cold`) on
// seed-drawn samples of the fixed population, writes them as binary
// snapshots, loads both into a ModelRegistry (256-slot queues, shed
// high-water 192) and serves it through a SocketServer. The load generator
// is one paced writer thread and one poll-based reader thread over four
// keep-alive connections (three for `hot`, one for `cold`). It first
// drives `cold` alone at a constant low rate, then walks `hot` up a ladder
// of fixed absolute Poisson rates while `cold` keeps its rate. Latency runs
// from when a request was due to when its reply was read; a shed or failed
// request misses every latency limit.

#include <poll.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <optional>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "harness.h"
#include "io/ensemble_snapshot.h"
#include "predict/flat_ensemble.h"
#include "serve/registry/model_registry.h"
#include "serve/wire/frame.h"
#include "serve/wire/socket_server.h"
#include "serve/wire/sockets.h"

namespace treewm::e2e {
namespace {

using serve::wire::Fd;

constexpr uint64_t kPopulationSeed = 47;
constexpr size_t kPopulationRows = 20000;
constexpr size_t kTrainRows = 2800;
constexpr size_t kRequestRows = 4096;
constexpr size_t kHotConnections = 3;  // + 1 cold = 4 client connections
constexpr double kWarmupSeconds = 0.3;
constexpr double kDrainSeconds = 2.0;
constexpr int64_t kSpinNs = 150000;  // writer spins only this close to a due time
const char* const kModels[2] = {"hot", "cold"};

struct ServeState {
  std::optional<forest::RandomForest> forests[2];
  data::Dataset requests;
  predict::VoteMatrix expected[2];  ///< engine votes per model per request row
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::wire::SocketServer> server;
  double snapshot_load_ms = 0;

  /// Releases everything, server before the registry it borrows.
  void Stop() {
    server.reset();
    registry.reset();
  }
};

Status BuildState(const RunOptions& options, ServeState* state) {
  const data::Dataset population =
      data::synthetic::MakeIjcnn1Like(kPopulationSeed, kPopulationRows);
  Rng rng(StreamSeed(options.seed, 6));
  state->requests = population.Subset(DrawRows(population.num_rows(), kRequestRows, &rng));
  serve::ModelRegistryOptions registry_options;
  registry_options.serving.queue.capacity = 256;
  registry_options.serving.queue.shed_high_water = 192;
  registry_options.serving.queue.policy = serve::OverflowPolicy::kReject;
  TREEWM_ASSIGN_OR_RETURN(state->registry, serve::ModelRegistry::Create(registry_options));
  state->snapshot_load_ms = 0;
  for (int m = 0; m < 2; ++m) {
    forest::ForestConfig config;
    config.num_trees = 32;
    config.tree.max_depth = 12;
    config.feature_fraction = 0.4;
    config.seed = rng.NextUint64();
    const data::Dataset train =
        population.Subset(DrawRows(population.num_rows(), kTrainRows, &rng));
    TREEWM_ASSIGN_OR_RETURN(forest::RandomForest forest,
                            forest::RandomForest::Fit(train, {}, config));
    state->expected[m] = forest.PredictAllVotes(state->requests);
    const std::string path = options.work_dir + "/serve-" + kModels[m] + ".twsn";
    TREEWM_RETURN_IF_ERROR(io::SaveEnsembleSnapshot(
        predict::FlatEnsemble::FromClassificationTrees(forest.trees()), path));
    state->forests[m].emplace(std::move(forest));
    const auto t0 = SteadyClock::now();
    TREEWM_RETURN_IF_ERROR(state->registry->LoadFromSnapshot(kModels[m], path));
    state->snapshot_load_ms += SecondsSince(t0) * 1e3;
  }
  serve::wire::SocketServerOptions wire_options;
  wire_options.default_model = kModels[0];
  // The registry's bounded queue is the admission gate under test; keep
  // the wire's per-connection pipelining cap above it.
  wire_options.max_in_flight_per_connection = 512;
  TREEWM_ASSIGN_OR_RETURN(state->server,
                          serve::wire::SocketServer::Create(state->registry.get(), wire_options));
  return Status::OK();
}

enum class Outcome : uint8_t { kPending, kOk, kShed, kFailed };

struct Request {
  int64_t due_ns = 0;
  int64_t written_ns = 0;
  int64_t replied_ns = 0;
  int model = 0;
  size_t conn = 0;
  size_t row = 0;
  Outcome outcome = Outcome::kPending;
};

/// Everything one phase measured for one model.
struct ModelPhase {
  uint64_t sent = 0, ok = 0, shed = 0, failed = 0, good = 0, late_good = 0, late_sent = 0;
  std::vector<double> latency_ms;  ///< served requests only
  std::vector<double> late_us, send_us, rtt_us;
  double GoodShare() const { return sent == 0 ? 1.0 : static_cast<double>(good) / sent; }
  /// Good share over the phase's last quarter: a growing backlog shows here.
  double LateGoodShare() const {
    return late_sent == 0 ? 1.0 : static_cast<double>(late_good) / late_sent;
  }
  /// Folds a later phase at the same rates into this one.
  void Append(const ModelPhase& o) {
    sent += o.sent, ok += o.ok, shed += o.shed, failed += o.failed, good += o.good;
    late_good += o.late_good, late_sent += o.late_sent;
    for (auto [to, from] : {std::pair{&latency_ms, &o.latency_ms}, {&late_us, &o.late_us},
                            {&send_us, &o.send_us}, {&rtt_us, &o.rtt_us}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
};

class LoadGenerator {
 public:
  LoadGenerator(const ServeState& state, std::vector<Fd>* fds, bool* votes_ok)
      : state_(state), fds_(*fds), votes_ok_(*votes_ok) {}

  /// Runs one phase: `rates[m]` requests/s for model m (0 = idle) for
  /// `seconds`, then waits for the replies. Returns per-model results.
  std::array<ModelPhase, 2> Run(const std::array<double, 2>& rates, double seconds,
                                Rng* rng) {
    // The schedule: two merged Poisson streams, frames encoded up front.
    std::vector<Request> requests;
    for (int m = 0; m < 2; ++m) {
      if (rates[m] <= 0) continue;
      double at = 0;
      for (size_t i = 0;; ++i) {
        at += -std::log(1.0 - rng->UniformReal()) / rates[m];
        if (at >= seconds) break;
        Request r;
        r.due_ns = static_cast<int64_t>(at * 1e9);
        r.model = m;
        r.conn = m == 0 ? i % kHotConnections : kHotConnections;
        r.row = rng->UniformInt(state_.requests.num_rows());
        requests.push_back(r);
      }
    }
    std::sort(requests.begin(), requests.end(),
              [](const Request& a, const Request& b) { return a.due_ns < b.due_ns; });
    std::vector<std::vector<uint8_t>> frames(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      serve::wire::PredictRequestMsg msg;
      msg.request_id = next_id_ + i;
      msg.model_id = kModels[requests[i].model];
      const auto row = state_.requests.Row(requests[i].row);
      msg.features.assign(row.begin(), row.end());
      frames[i] = serve::wire::EncodePredictRequest(msg, serve::wire::kWireVersionMultiModel);
    }
    const uint64_t base = next_id_;
    next_id_ += requests.size();

    std::atomic<size_t> written{0};
    const auto epoch = SteadyClock::now();
    const auto now_ns = [&] {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() - epoch)
          .count();
    };
    ThreadPool pool(2);
    const Status writer = pool.Submit([&] {
      for (size_t i = 0; i < requests.size(); ++i) {
        // Sleep through long gaps (a spinning writer would take a core from
        // the server at low rates), spin the last stretch for precision.
        const int64_t gap = requests[i].due_ns - now_ns();
        if (gap > kSpinNs) std::this_thread::sleep_for(std::chrono::nanoseconds(gap - kSpinNs));
        while (now_ns() < requests[i].due_ns) {
        }
        const std::vector<uint8_t>& frame = frames[i];
        requests[i].written_ns = now_ns();
        size_t off = 0;
        while (off < frame.size()) {
          auto wrote = serve::wire::WriteSome(fds_[requests[i].conn], frame.data() + off,
                                              frame.size() - off);
          if (!wrote.ok()) break;  // the reader counts the missing reply
          off += wrote.value().bytes;
        }
        written.store(i + 1, std::memory_order_release);
      }
    });
    const Status reader = pool.Submit([&] {
      std::vector<serve::wire::FrameDecoder> decoders(fds_.size());
      std::vector<pollfd> polls(fds_.size());
      uint8_t chunk[65536];
      size_t answered = 0;
      int64_t deadline = -1;
      while (answered < requests.size()) {
        if (deadline < 0 && written.load(std::memory_order_acquire) == requests.size()) {
          deadline = now_ns() + static_cast<int64_t>(kDrainSeconds * 1e9);
        }
        if (deadline >= 0 && now_ns() > deadline) break;
        for (size_t c = 0; c < fds_.size(); ++c) polls[c] = {fds_[c].get(), POLLIN, 0};
        if (poll(polls.data(), polls.size(), 5) <= 0) continue;
        for (size_t c = 0; c < fds_.size(); ++c) {
          if ((polls[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          auto got = serve::wire::ReadSome(fds_[c], chunk, sizeof(chunk));
          if (!got.ok() || got.value().eof) return;  // missing replies count as failed
          const int64_t at = now_ns();
          decoders[c].Feed(std::span<const uint8_t>(chunk, got.value().bytes));
          while (true) {
            auto next = decoders[c].Next();
            if (!next.ok()) return;
            if (!next.value().has_value()) break;
            const serve::wire::Frame& frame = *next.value();
            uint64_t id = 0;
            Outcome outcome = Outcome::kFailed;
            std::vector<int8_t> votes;
            if (frame.type == serve::wire::FrameType::kPredictResponse) {
              auto msg = serve::wire::DecodePredictResponse(frame.body);
              if (!msg.ok()) return;
              id = msg.value().request_id;
              votes = std::move(msg.value().votes);
              outcome = Outcome::kOk;
            } else if (frame.type == serve::wire::FrameType::kError) {
              auto msg = serve::wire::DecodeError(frame.body);
              if (!msg.ok()) return;
              id = msg.value().request_id;
              outcome = msg.value().code == StatusCode::kResourceExhausted ? Outcome::kShed
                                                                           : Outcome::kFailed;
            }
            if (id < base || id >= base + requests.size()) return;
            // The writer stamps written_ns before the frame can be answered.
            while (written.load(std::memory_order_acquire) <= id - base) {
              std::this_thread::yield();
            }
            Request& r = requests[id - base];
            if (r.outcome != Outcome::kPending) return;  // answered twice
            r.replied_ns = at;
            r.outcome = outcome;
            if (outcome == Outcome::kOk) {
              const auto want = state_.expected[r.model].row(r.row);
              if (votes.size() != want.size() ||
                  !std::equal(votes.begin(), votes.end(), want.begin())) {
                votes_ok_ = false;
              }
            }
            ++answered;
          }
        }
      }
    });
    pool.Shutdown();
    if (!writer.ok() || !reader.ok()) {
      for (Request& r : requests) r.outcome = Outcome::kFailed;
    }

    std::array<ModelPhase, 2> out;
    const int64_t late_from = static_cast<int64_t>(seconds * 0.75e9);
    for (const Request& r : requests) {
      ModelPhase& p = out[static_cast<size_t>(r.model)];
      const bool late_quarter = r.due_ns >= late_from;
      ++p.sent;
      p.late_sent += late_quarter ? 1 : 0;
      p.late_us.push_back(static_cast<double>(r.written_ns - r.due_ns) * 1e-3);
      switch (r.outcome) {
        case Outcome::kOk: {
          ++p.ok;
          const double ms = static_cast<double>(r.replied_ns - r.due_ns) * 1e-6;
          p.latency_ms.push_back(ms);
          p.send_us.push_back(static_cast<double>(r.written_ns - r.due_ns) * 1e-3);
          p.rtt_us.push_back(static_cast<double>(r.replied_ns - r.written_ns) * 1e-3);
          if (ms <= kServeLatencyLimitMs) {
            ++p.good;
            p.late_good += late_quarter ? 1 : 0;
          }
          break;
        }
        case Outcome::kShed:
          ++p.shed;
          break;
        case Outcome::kPending:
        case Outcome::kFailed:
          ++p.failed;
          break;
      }
    }
    return out;
  }

 private:
  const ServeState& state_;
  std::vector<Fd>& fds_;
  bool& votes_ok_;
  uint64_t next_id_ = 1;
};

}  // namespace

void RunServe(const RunOptions& options, RunReport* out) {
  RunReport& report = *out;
  ServeState state;
  Status built = Status::OK();
  const double setup_s = TimeSetup(
      kSetupRepetitions, [&] { built = BuildState(options, &state); },
      [&] {
        state.Stop();
        state = ServeState();
      });
  std::vector<Fd> fds;
  for (size_t c = 0; built.ok() && c <= kHotConnections; ++c) {
    auto fd = serve::wire::ConnectTcpLoopback(state.server->port(), std::chrono::seconds(10));
    if (!fd.ok()) built = fd.status();
    if (fd.ok()) fds.push_back(std::move(fd).MoveValue());
  }
  if (!built.ok()) {
    report.Fail("set-up: " + built.ToString());
    state.Stop();
    return;
  }

  Tracer tracer(options.trace);
  bool votes_ok = true;
  LoadGenerator generator(state, &fds, &votes_ok);
  Rng rng(StreamSeed(options.seed, 7));
  constexpr size_t kRates = std::size(kHotLadderRps);
  // Phases: cold alone, then the lowest hot rate before and after every
  // higher rate, so the lowest-rate figures sample the whole run and one
  // slow stretch of the host cannot own them.
  const double phase_s = (options.seconds - kWarmupSeconds) / static_cast<double>(2 * kRates);
  std::array<ModelPhase, 2> cold_alone;
  std::vector<std::array<ModelPhase, 2>> ladder(kRates);
  const auto run_rate = [&](size_t i) {
    const std::string name = "serve.hot_r" + std::to_string(kHotLadderRps[i]);
    Tracer::Scope span(&tracer, name.c_str());
    const std::array<ModelPhase, 2> phase = generator.Run(
        {static_cast<double>(kHotLadderRps[i]), static_cast<double>(kColdRps)}, phase_s, &rng);
    for (size_t m = 0; m < 2; ++m) ladder[i][m].Append(phase[m]);
  };
  {
    Tracer::Scope span(&tracer, "serve.warmup");
    generator.Run({2000.0, 2000.0}, kWarmupSeconds, &rng);
  }
  {
    Tracer::Scope span(&tracer, "serve.cold_alone");
    cold_alone = generator.Run({0.0, static_cast<double>(kColdRps)}, phase_s, &rng);
  }
  run_rate(0);
  for (size_t i = 1; i < kRates; ++i) {
    run_rate(i);
    run_rate(0);
  }

  for (Fd& fd : fds) fd.Close();
  ShutdownAndAccount(state.server.get(), state.registry.get(), &report, options.trace);
  if (!votes_ok) report.Fail("a served reply's votes differ from the engine's");

  // Attempted/failed over every measured request; sheds are the designed
  // overload outcome, not failures.
  std::vector<std::array<ModelPhase, 2>> all = ladder;
  all.push_back(cold_alone);
  for (const auto& phase : all) {
    for (const ModelPhase& p : phase) {
      report.attempted += p.sent;
      report.failed += p.failed;
    }
  }

  double max_rate = 0;
  for (size_t i = 0; i < kRates; ++i) {
    const ModelPhase& hot = ladder[i][0];
    if (hot.GoodShare() >= 0.99 && hot.LateGoodShare() >= 0.99) max_rate = kHotLadderRps[i];
  }
  const ModelPhase& low = ladder.front()[0];
  const ModelPhase& top = ladder.back()[0];
  const Tail low_tail = WindowedTail(low.latency_ms);
  const Tail cold_tail = WindowedTail(ladder.back()[1].latency_ms);
  if (!options.trace) {
    const std::string n = "n=" + std::to_string(low.latency_ms.size());
    report.metrics.Set("setup_s", setup_s);
    report.metrics.Set("peak_rss_mb", PeakRssMb());
    report.metrics.Set("op_p50_ms", WindowedMedian(low.latency_ms));
    report.notes.push_back(Note("serve_max_rate_rps", max_rate, "1/s",
                                "limit " + std::to_string(kServeLatencyLimitMs) + " ms"));
    report.notes.push_back(Note("serve_p50_ms", WindowedMedian(low.latency_ms), "ms",
                                "at " + std::to_string(kHotLadderRps[0]) + " rps " + n));
    report.notes.push_back(Note("serve_tail_ms", low_tail.value, "ms",
                                low_tail.Label() + " " + n));
    report.notes.push_back(Note("serve_good_share_over", top.GoodShare(), "share",
                                "sent " + std::to_string(top.sent)));
    report.notes.push_back(Note("cold_tail_ms", cold_tail.value, "ms",
                                cold_tail.Label()));
    return;
  }
  MetricTable& m = report.metrics;
  for (size_t i = 0; i < kRates; ++i) {
    const ModelPhase& hot = ladder[i][0];
    const std::string p = "hot.r" + std::to_string(kHotLadderRps[i]) + ".";
    m.Set(p + "sent", static_cast<double>(hot.sent));
    m.Set(p + "ok", static_cast<double>(hot.ok));
    m.Set(p + "shed", static_cast<double>(hot.shed));
    m.Set(p + "failed", static_cast<double>(hot.failed));
    m.Set(p + "p50_ms", Median(hot.latency_ms));
    m.Set(p + "tail_ms", WindowedTail(hot.latency_ms).value);
  }
  m.Set("serve.max_rate_rps", max_rate);
  m.Set("serve.good_share_over", top.GoodShare());
  m.Set("cold.tail_ms", cold_tail.value);
  m.Set("cold.tail_ms_alone", WindowedTail(cold_alone[1].latency_ms).value);
  m.Set("gen.late_p99_us", Quantile(top.late_us, 0.99));
  m.Set("wire.client_send_us", Median(low.send_us));
  m.Set("wire.rtt_us", Median(low.rtt_us));
  m.Set("io.snapshot_load_ms", state.snapshot_load_ms);
  m.Set("trace.spans", static_cast<double>(tracer.spans().size()));
  tracer.WriteJsonLines(options.work_dir + "/spans-serve-" + std::to_string(options.seed) +
                        ".jsonl");
}

}  // namespace treewm::e2e
