// Micro-benchmarks: the fault-tolerant serving front-end under load.
//
// The open-loop harness drives Poisson arrivals at a fixed offered rate —
// requests keep arriving whether or not the server keeps up, like real
// clients — sweeping offered rate (as a fraction of the measured max
// sustainable throughput) x batch delay. Each run reports:
//
//   p50_us / p99_us    completion latency percentiles over served requests
//   throughput_rps     requests actually served per second
//   shed_rate          fraction of requests refused (ResourceExhausted)
//   offered_rps        the arrival rate driven at the front door
//
// The 2x-overload rows (rate_pct = 200) are the robustness gate: the
// front-end must shed (shed_rate > 0) instead of letting latency grow
// without bound, and the requests it does serve must stay fast.
//
// Machine-readable output convention (see bench/README.md):
//   ./micro_serve --benchmark_out=BENCH_serve.json --benchmark_out_format=json

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "io/ensemble_snapshot.h"
#include "io/model_io.h"
#include "predict/flat_ensemble.h"
#include "serve/registry/model_registry.h"
#include "serve/serving_front_end.h"
#include "serve/wire/frame.h"
#include "serve/wire/socket_client.h"
#include "serve/wire/socket_server.h"
#include "serve/wire/sockets.h"

namespace {

using namespace treewm;
using std::chrono::steady_clock;

const bench::ForestFixture& ServeFixture() {
  return bench::CachedForestFixture(11, 4000, 16, 1.5, 32, 7);
}

std::shared_ptr<const predict::FlatEnsemble> ServeEnsemble() {
  static auto* flat = new std::shared_ptr<const predict::FlatEnsemble>(
      std::make_shared<predict::FlatEnsemble>(
          predict::FlatEnsemble::FromClassificationTrees(
              ServeFixture().forest.trees())));
  return *flat;
}

serve::ServingOptions LoadTestOptions(int batch_delay_us) {
  serve::ServingOptions options;
  options.queue.capacity = 256;
  options.queue.shed_high_water = 192;  // shed before the queue can fill
  options.queue.max_batch_rows = 64;
  options.queue.max_batch_delay = std::chrono::microseconds(batch_delay_us);
  return options;
}

/// Max sustainable rate through the full stack (closed loop, no pacing),
/// measured once: the offered-rate sweep is expressed relative to this so
/// "2x overload" means the same thing on any machine.
double BaseRatePerSec() {
  static const double rate = [] {
    const auto& fx = ServeFixture();
    auto created = serve::ServingFrontEnd::Create(ServeEnsemble(),
                                                  LoadTestOptions(100));
    auto serving = std::move(created).MoveValue();
    constexpr size_t kWarm = 500, kMeasured = 4000;
    std::vector<std::future<Result<serve::PredictResult>>> futures;
    futures.reserve(kWarm + kMeasured);
    for (size_t i = 0; i < kWarm; ++i) {
      futures.push_back(serving->SubmitPredict(fx.data.Row(i % fx.data.num_rows())));
    }
    // discard ok: warm-up traffic; outcomes are intentionally uncounted
    for (auto& f : futures) (void)f.get();
    futures.clear();
    const auto start = steady_clock::now();
    for (size_t i = 0; i < kMeasured; ++i) {
      futures.push_back(serving->SubmitPredict(fx.data.Row(i % fx.data.num_rows())));
    }
    size_t served = 0;
    for (auto& f : futures) served += f.get().ok() ? 1 : 0;
    const std::chrono::duration<double> elapsed = steady_clock::now() - start;
    serving->Shutdown();
    return static_cast<double>(std::max<size_t>(served, 1)) / elapsed.count();
  }();
  return rate;
}

/// One open-loop run: `num_requests` Poisson arrivals at `offered_rps`.
struct OpenLoopOutcome {
  std::vector<double> latencies_us;  // served requests only
  size_t shed = 0;
  double elapsed_s = 0;
};

/// Open-loop core over any submit callable (`submit(i)` returns the
/// request's future) — shared by the front-end sweep and the registry
/// mixed-traffic bench.
template <typename SubmitFn>
OpenLoopOutcome RunOpenLoopWith(SubmitFn&& submit, double offered_rps,
                                size_t num_requests, uint64_t seed) {
  std::vector<std::future<Result<serve::PredictResult>>> futures(num_requests);
  std::vector<steady_clock::time_point> submitted(num_requests);
  std::atomic<size_t> produced{0};

  // Collector: takes completions in submission order (the pipeline is FIFO)
  // and timestamps each resolve, so latency covers queue + batch + compute.
  std::vector<double> latencies_us;
  latencies_us.reserve(num_requests);
  size_t shed = 0;
  ThreadPool collector(1);
  const Status collector_started = collector.Submit([&] {
    for (size_t i = 0; i < num_requests; ++i) {
      while (produced.load(std::memory_order_acquire) <= i) {
        std::this_thread::yield();
      }
      auto result = futures[i].get();
      const auto now = steady_clock::now();
      if (result.ok()) {
        latencies_us.push_back(
            std::chrono::duration<double, std::micro>(now - submitted[i]).count());
      } else {
        ++shed;
      }
    }
  });
  if (!collector_started.ok()) std::abort();  // fresh pool never rejects

  // Producer: exponential inter-arrival gaps, absolute schedule (open loop —
  // a slow server does NOT slow the arrivals; that is the whole point).
  Rng rng(seed);
  const auto start = steady_clock::now();
  auto next_arrival = start;
  for (size_t i = 0; i < num_requests; ++i) {
    while (steady_clock::now() < next_arrival) {
      // Spin: gaps are microseconds, far below sleep_for resolution.
    }
    submitted[i] = steady_clock::now();
    futures[i] = submit(i);
    produced.store(i + 1, std::memory_order_release);
    const double gap_s = -std::log(1.0 - rng.UniformReal()) / offered_rps;
    next_arrival += std::chrono::duration_cast<steady_clock::duration>(
        std::chrono::duration<double>(gap_s));
  }
  collector.Shutdown();  // drains the collector task (= join)

  OpenLoopOutcome outcome;
  outcome.latencies_us = std::move(latencies_us);
  outcome.shed = shed;
  outcome.elapsed_s =
      std::chrono::duration<double>(steady_clock::now() - start).count();
  return outcome;
}

OpenLoopOutcome RunOpenLoop(serve::ServingFrontEnd* serving, double offered_rps,
                            size_t num_requests, uint64_t seed) {
  const auto& fx = ServeFixture();
  return RunOpenLoopWith(
      [&](size_t i) {
        return serving->SubmitPredict(fx.data.Row(i % fx.data.num_rows()));
      },
      offered_rps, num_requests, seed);
}

double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0;
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(values->size() - 1) + 0.5);
  std::nth_element(values->begin(), values->begin() + index, values->end());
  return (*values)[index];
}

// args: {offered rate as % of measured max, batch delay in µs}
void BM_ServeOpenLoopPoisson(benchmark::State& state) {
  const double offered_rps =
      BaseRatePerSec() * static_cast<double>(state.range(0)) / 100.0;
  const size_t num_requests = 1500;
  OpenLoopOutcome outcome;
  for (auto _ : state) {
    auto created = serve::ServingFrontEnd::Create(
        ServeEnsemble(), LoadTestOptions(static_cast<int>(state.range(1))));
    auto serving = std::move(created).MoveValue();
    outcome = RunOpenLoop(serving.get(), offered_rps, num_requests,
                          /*seed=*/1234 + static_cast<uint64_t>(state.range(0)));
    serving->Shutdown();
  }
  const size_t served = outcome.latencies_us.size();
  state.counters["offered_rps"] = offered_rps;
  state.counters["throughput_rps"] =
      outcome.elapsed_s > 0 ? static_cast<double>(served) / outcome.elapsed_s : 0;
  state.counters["shed_rate"] =
      static_cast<double>(outcome.shed) / static_cast<double>(num_requests);
  state.counters["p50_us"] = Percentile(&outcome.latencies_us, 0.50);
  state.counters["p99_us"] = Percentile(&outcome.latencies_us, 0.99);
  state.SetItemsProcessed(static_cast<int64_t>(served) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ServeOpenLoopPoisson)
    ->ArgNames({"rate_pct", "delay_us"})
    ->Args({50, 0})
    ->Args({50, 200})
    ->Args({50, 1000})
    ->Args({100, 0})
    ->Args({100, 200})
    ->Args({100, 1000})
    ->Args({200, 0})    // 2x overload: the shed gate
    ->Args({200, 200})
    ->Args({200, 1000})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Wire overload: the same open-loop discipline through the socket layer.
//
// Each connection is a pipelined writer (paced Poisson arrivals, never
// waiting for responses — open loop) plus a reader matching answers back to
// submit timestamps by request id. The 2x-overload rows are the wire
// overload gate: the stack must answer EVERY request (response or typed
// refusal — exactly-once accounting), shed instead of queueing without
// bound, and keep served latency flat as connections multiply.

struct WireConnOutcome {
  std::vector<double> latencies_us;  // served requests only
  size_t shed = 0;       // ResourceExhausted refusals (front-end pushback)
  size_t failed = 0;     // anything else (transport, deadline, ...)
};

/// The wire serves a registry; a one-model registry (model "m", also the
/// server's default) stands in for the single front-end of the in-process
/// rows, with the same serving options.
std::unique_ptr<serve::ModelRegistry> OneModelRegistry(int batch_delay_us) {
  serve::ModelRegistryOptions options;
  options.serving = LoadTestOptions(batch_delay_us);
  auto registry = serve::ModelRegistry::Create(options).MoveValue();
  if (!registry->Load("m", ServeEnsemble()).ok()) std::abort();
  return registry;
}

/// Max sustainable rate THROUGH THE WIRE (closed loop, 4 keep-alive
/// connections), measured once. The wire sweep is expressed relative to
/// this — not the in-process max — so rate_pct=100 saturates the socket
/// path and rate_pct=200 is a true 2x overload of it.
double WireBaseRatePerSec() {
  using namespace treewm::serve::wire;
  static const double rate = [] {
    const auto& fx = ServeFixture();
    auto registry = OneModelRegistry(200);
    SocketServerOptions wire_options;
    wire_options.default_model = "m";
    auto server = SocketServer::Create(registry.get(), wire_options);
    if (!server.ok()) std::abort();
    constexpr size_t kConns = 4, kPerConn = 600;
    std::atomic<size_t> served{0};
    const auto start = steady_clock::now();
    {
      ThreadPool clients(kConns);
      for (size_t c = 0; c < kConns; ++c) {
        const Status submitted = clients.Submit([&, c] {
          SocketClientOptions options;
          options.port = server.value()->port();
          SocketClient client(options);
          for (size_t i = 0; i < kPerConn; ++i) {
            auto result =
                client.Predict(fx.data.Row((c + i) % fx.data.num_rows()));
            if (result.ok()) served.fetch_add(1, std::memory_order_relaxed);
          }
        });
        if (!submitted.ok()) std::abort();
      }
      clients.Shutdown();
    }
    const std::chrono::duration<double> elapsed = steady_clock::now() - start;
    server.value()->Shutdown();
    registry->Shutdown();
    return static_cast<double>(std::max<size_t>(served.load(), 1)) /
           elapsed.count();
  }();
  return rate;
}

// args: {offered rate as % of measured max, connection count}
//
// One paced writer thread round-robins Poisson arrivals across all
// connections (pipelined — it never waits for a response: open loop); one
// blocking reader per connection matches answers back to submit timestamps
// by request id. A single pacing thread keeps the harness honest on small
// machines: N spinning producers would starve the server being measured.
void BM_WireOpenLoopOverload(benchmark::State& state) {
  using namespace treewm::serve::wire;
  const auto& fx = ServeFixture();
  const double offered_rps =
      WireBaseRatePerSec() * static_cast<double>(state.range(0)) / 100.0;
  const size_t num_connections = static_cast<size_t>(state.range(1));
  const size_t per_conn = (1536 + num_connections - 1) / num_connections;
  const size_t total = per_conn * num_connections;

  std::vector<WireConnOutcome> outcomes(num_connections);
  double elapsed_s = 0;
  for (auto _ : state) {
    auto registry = OneModelRegistry(200);
    SocketServerOptions wire_options;
    wire_options.default_model = "m";
    wire_options.max_connections = num_connections + 4;
    // The model's shed high-water is the gate under test; keep the
    // wire-level pipelining cap out of the way.
    wire_options.max_in_flight_per_connection = 4096;
    auto server = SocketServer::Create(registry.get(), wire_options);
    if (!server.ok()) std::abort();

    std::vector<Fd> fds(num_connections);
    for (size_t c = 0; c < num_connections; ++c) {
      auto fd = ConnectTcpLoopback(server.value()->port(),
                                   std::chrono::seconds(30));
      if (!fd.ok()) std::abort();
      fds[c] = std::move(fd).MoveValue();
    }

    // Request i goes to connection i % N with wire id i + 1; timestamps are
    // indexed by wire id, published through `produced`.
    std::vector<steady_clock::time_point> submitted(total);
    std::atomic<size_t> produced{0};

    const auto start = steady_clock::now();
    ThreadPool pool(1 + num_connections);
    for (size_t c = 0; c < num_connections; ++c) {
      WireConnOutcome* outcome = &outcomes[c];
      outcome->latencies_us.clear();
      outcome->latencies_us.reserve(per_conn);
      outcome->shed = 0;
      outcome->failed = 0;
      const Fd* fd = &fds[c];
      const Status reader = pool.Submit([=, &submitted, &produced] {
        FrameDecoder decoder;
        uint8_t chunk[8192];
        size_t answered = 0;
        while (answered < per_conn) {
          auto next = decoder.Next();
          if (!next.ok()) break;
          if (!next.value().has_value()) {
            auto got = ReadSome(*fd, chunk, sizeof(chunk));
            if (!got.ok() || got.value().would_block || got.value().eof) break;
            decoder.Feed(std::span<const uint8_t>(chunk, got.value().bytes));
            continue;
          }
          const auto now = steady_clock::now();
          Frame frame = std::move(*next.value());
          uint64_t id = 0;
          bool ok = false;
          bool resource_exhausted = false;
          if (frame.type == FrameType::kPredictResponse) {
            auto msg = DecodePredictResponse(frame.body);
            if (!msg.ok()) break;
            id = msg.value().request_id;
            ok = true;
          } else if (frame.type == FrameType::kError) {
            auto msg = DecodeError(frame.body);
            if (!msg.ok()) break;
            id = msg.value().request_id;
            resource_exhausted =
                msg.value().code == StatusCode::kResourceExhausted;
          } else {
            break;
          }
          if (id == 0 || id > total) break;  // connection-level error
          while (produced.load(std::memory_order_acquire) < id) {
            std::this_thread::yield();
          }
          ++answered;
          if (ok) {
            outcome->latencies_us.push_back(
                std::chrono::duration<double, std::micro>(
                    now - submitted[id - 1])
                    .count());
          } else if (resource_exhausted) {
            ++outcome->shed;
          } else {
            ++outcome->failed;
          }
        }
        outcome->failed += per_conn - answered;
      });
      if (!reader.ok()) std::abort();
    }
    const Status writer = pool.Submit([&] {
      Rng rng(77 + num_connections);
      auto next_arrival = steady_clock::now();
      for (size_t i = 0; i < total; ++i) {
        while (steady_clock::now() < next_arrival) {
          // Spin: microsecond gaps, open loop.
        }
        PredictRequestMsg msg;
        msg.request_id = i + 1;
        const auto row = fx.data.Row(i % fx.data.num_rows());
        msg.features.assign(row.begin(), row.end());
        const std::vector<uint8_t> frame = EncodePredictRequest(msg);
        submitted[i] = steady_clock::now();
        produced.store(i + 1, std::memory_order_release);
        const Fd& fd = fds[i % num_connections];
        size_t written = 0;
        while (written < frame.size()) {
          auto wrote =
              WriteSome(fd, frame.data() + written, frame.size() - written);
          if (!wrote.ok()) break;  // readers count the missing answers
          if (!wrote.value().would_block) written += wrote.value().bytes;
        }
        const double gap_s = -std::log(1.0 - rng.UniformReal()) / offered_rps;
        next_arrival += std::chrono::duration_cast<steady_clock::duration>(
            std::chrono::duration<double>(gap_s));
      }
      // All requests written; half-close nothing — readers finish by count.
    });
    if (!writer.ok()) std::abort();
    pool.Shutdown();  // joins the writer + readers
    elapsed_s =
        std::chrono::duration<double>(steady_clock::now() - start).count();
    for (Fd& fd : fds) fd.Close();
    server.value()->Shutdown();
    const WireStats stats = server.value()->stats();
    // The wire accounting must close even at 2x overload.
    if (stats.requests_received !=
        stats.responses_sent + stats.refusals_sent + stats.responses_dropped) {
      std::abort();
    }
    registry->Shutdown();
  }

  std::vector<double> all_latencies;
  size_t shed = 0, failed = 0;
  for (const WireConnOutcome& outcome : outcomes) {
    all_latencies.insert(all_latencies.end(), outcome.latencies_us.begin(),
                         outcome.latencies_us.end());
    shed += outcome.shed;
    failed += outcome.failed;
  }
  const size_t served = all_latencies.size();
  state.counters["offered_rps"] = offered_rps;
  state.counters["throughput_rps"] =
      elapsed_s > 0 ? static_cast<double>(served) / elapsed_s : 0;
  state.counters["shed_rate"] =
      static_cast<double>(shed) / static_cast<double>(total);
  state.counters["fail_rate"] =
      static_cast<double>(failed) / static_cast<double>(total);
  state.counters["p50_us"] = Percentile(&all_latencies, 0.50);
  state.counters["p99_us"] = Percentile(&all_latencies, 0.99);
  state.SetItemsProcessed(static_cast<int64_t>(served) *
                          static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WireOpenLoopOverload)
    ->ArgNames({"rate_pct", "conns"})
    ->Args({50, 1})
    ->Args({50, 4})
    ->Args({100, 4})
    ->Args({100, 16})
    ->Args({200, 4})    // 2x closed-loop base: pipelining absorbs this
    ->Args({200, 16})
    ->Args({400, 4})    // deep overload through the socket: the wire gate
    ->Args({400, 16})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Closed-loop single-client round trip: the latency floor of the stack
// (queue hop + batch delay + one-row batch + completion callback).
void BM_ServeSingleClientRoundTrip(benchmark::State& state) {
  const auto& fx = ServeFixture();
  auto created = serve::ServingFrontEnd::Create(
      ServeEnsemble(), LoadTestOptions(static_cast<int>(state.range(0))));
  auto serving = std::move(created).MoveValue();
  size_t i = 0;
  for (auto _ : state) {
    auto result = serving->Predict(fx.data.Row(i % fx.data.num_rows()));
    benchmark::DoNotOptimize(result);
    ++i;
  }
  serving->Shutdown();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeSingleClientRoundTrip)
    ->ArgNames({"delay_us"})
    ->Arg(0)
    ->Arg(200)
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Model registry: cold start and bulkhead isolation under overload.

// Cold start: file on disk -> FlatEnsemble ready to serve. format=0 is the
// JSON path (LoadForest parse + flatten — what a registry restart costs
// without snapshots); format=1 is the binary snapshot (CRC-checked arena
// read, io/ensemble_snapshot.h). Same model either way; bytes_on_disk shows
// the size gap alongside the latency gap.
void BM_RegistryColdStart(benchmark::State& state) {
  const bool use_snapshot = state.range(0) == 1;
  const auto& fx = ServeFixture();
  const std::string path = use_snapshot ? "/tmp/treewm_bench_cold.twsn"
                                        : "/tmp/treewm_bench_cold.json";
  if (use_snapshot) {
    const auto flat =
        predict::FlatEnsemble::FromClassificationTrees(fx.forest.trees());
    if (!io::SaveEnsembleSnapshot(flat, path).ok()) std::abort();
  } else {
    if (!io::SaveForest(fx.forest, path).ok()) std::abort();
  }

  size_t bytes_on_disk = 0;
  for (auto _ : state) {
    if (use_snapshot) {
      auto image = io::LoadEnsembleSnapshot(path);
      if (!image.ok()) std::abort();
      bytes_on_disk = 0;  // reported via the file below either way
      benchmark::DoNotOptimize(image.value());
    } else {
      auto forest = io::LoadForest(path);
      if (!forest.ok()) std::abort();
      auto image =
          predict::FlatEnsemble::FromClassificationTrees(forest.value().trees());
      benchmark::DoNotOptimize(image);
    }
  }
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    bytes_on_disk = static_cast<size_t>(std::ftell(f));
    std::fclose(f);
  }
  state.counters["bytes_on_disk"] = static_cast<double>(bytes_on_disk);
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_RegistryColdStart)
    ->ArgNames({"snapshot"})
    ->Arg(0)   // JSON parse + flatten
    ->Arg(1)   // binary snapshot
    ->Unit(benchmark::kMicrosecond);

// Bulkhead isolation gate: two models in one registry, the "hot" model
// driven open-loop at 400% of the measured max while the "cold" model sees
// light traffic. The run reports the cold model's p99 both alone and under
// the neighbor's overload — bulkheads mean the overload is absorbed by the
// hot model's own queue (hot_shed_rate > 0) and cold_p99_us stays at its
// alone baseline instead of inheriting the hot model's queueing delay.
void BM_RegistryMixedTrafficOverload(benchmark::State& state) {
  const auto& fx = ServeFixture();
  const double hot_rps = BaseRatePerSec() * 4.0;   // 400%: deep overload
  const double cold_rps = BaseRatePerSec() * 0.1;  // light, latency-sensitive
  const size_t kHotRequests = 1500;
  const size_t kColdRequests = 300;

  OpenLoopOutcome hot, cold_alone, cold_under_overload;
  for (auto _ : state) {
    serve::ModelRegistryOptions registry_options;
    registry_options.serving = LoadTestOptions(200);
    auto registry = serve::ModelRegistry::Create(registry_options).MoveValue();
    if (!registry->Load("hot", ServeEnsemble()).ok()) std::abort();
    if (!registry->Load("cold", ServeEnsemble()).ok()) std::abort();

    const auto submit_to = [&](const char* id) {
      return [&, id](size_t i) {
        return registry->SubmitPredict(id,
                                       fx.data.Row(i % fx.data.num_rows()));
      };
    };
    // Baseline: the cold model with no noisy neighbor.
    cold_alone =
        RunOpenLoopWith(submit_to("cold"), cold_rps, kColdRequests, 31);
    // Same cold traffic while the hot model is driven 4x over capacity.
    {
      ThreadPool drivers(2);
      const Status hot_driver = drivers.Submit([&] {
        hot = RunOpenLoopWith(submit_to("hot"), hot_rps, kHotRequests, 32);
      });
      const Status cold_driver = drivers.Submit([&] {
        cold_under_overload =
            RunOpenLoopWith(submit_to("cold"), cold_rps, kColdRequests, 33);
      });
      if (!hot_driver.ok() || !cold_driver.ok()) std::abort();
      drivers.Shutdown();
    }
    registry->Shutdown();
    const serve::RegistryStats stats = registry->stats();
    // The registry accounting identity must close even at 4x overload.
    if (stats.submitted != stats.serving.submitted +
                               stats.refused_unknown_model +
                               stats.refused_not_serving) {
      std::abort();
    }
  }
  state.counters["hot_offered_rps"] = hot_rps;
  state.counters["hot_shed_rate"] = static_cast<double>(hot.shed) /
                                    static_cast<double>(kHotRequests);
  state.counters["hot_p99_us"] = Percentile(&hot.latencies_us, 0.99);
  state.counters["cold_p99_alone_us"] =
      Percentile(&cold_alone.latencies_us, 0.99);
  state.counters["cold_p99_us"] =
      Percentile(&cold_under_overload.latencies_us, 0.99);
  state.counters["cold_shed_rate"] =
      static_cast<double>(cold_under_overload.shed) /
      static_cast<double>(kColdRequests);
  state.SetItemsProcessed(
      static_cast<int64_t>(hot.latencies_us.size() +
                           cold_under_overload.latencies_us.size()) *
      static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RegistryMixedTrafficOverload)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Wire codec: what a predict request costs per byte, without the sockets.

// CRC-32 throughput (common/crc32) over about one 784-feature request frame
// and over a 64 KB buffer.
void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> bytes(static_cast<size_t>(state.range(0)));
  Rng rng(5);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextUint64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(bytes));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->ArgNames({"bytes"})->Arg(3216)->Arg(65536);

// One v2 predict request through the whole codec: the client's encode, the
// server's FrameDecoder reassembly and its body decode. features:784 is the
// dispute workload's row, features:22 the serve workload's.
void BM_WireCodecPredictRequest(benchmark::State& state) {
  serve::wire::PredictRequestMsg msg;
  msg.request_id = 1;
  msg.timeout = std::chrono::milliseconds(250);
  msg.model_id = "suspect";
  msg.features.resize(static_cast<size_t>(state.range(0)));
  Rng rng(6);
  for (float& f : msg.features) f = static_cast<float>(rng.UniformReal());
  serve::wire::FrameDecoder decoder;
  size_t frame_bytes = 0;
  for (auto _ : state) {
    const std::vector<uint8_t> wire = serve::wire::EncodePredictRequest(
        msg, serve::wire::kWireVersionMultiModel);
    frame_bytes = wire.size();
    decoder.Feed(wire);
    auto frame = decoder.Next();
    if (!frame.ok() || !frame.value().has_value()) std::abort();
    auto decoded = serve::wire::DecodePredictRequest(frame.value()->body,
                                                     frame.value()->version);
    if (!decoded.ok()) std::abort();
    benchmark::DoNotOptimize(decoded.value());
    ++msg.request_id;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(frame_bytes));
}
BENCHMARK(BM_WireCodecPredictRequest)
    ->ArgNames({"features"})
    ->Arg(22)
    ->Arg(784)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
