// serve_client — CLI for the wire protocol (src/serve/wire/).
//
// Subcommands:
//   serve [port]                     train two demo forests, serve them from
//                                    a model registry on 127.0.0.1:<port>
//                                    (0 = kernel-picked; the bound port is
//                                    printed), run until stdin closes (pipe
//                                    `true |` for CI). Models: "demo" (the
//                                    default for v1 clients) and
//                                    "demo-compact".
//   ping <port>                      liveness round-trip.
//   models <port>                    list the server's models (id, state,
//                                    checksum, traffic counters).
//   predict <port> f1,f2,...         one prediction; prints label + votes.
//   load <port> <requests> [conns]   closed-loop load of exactly <requests>
//                                    predictions over 1-64 keep-alive
//                                    connections (default 1) with the
//                                    polite-client retry discipline; prints
//                                    served/refused.
//
// predict and load accept `--model <id>` anywhere after the subcommand to
// address a specific model (protocol v2); without it they speak v1 and land
// on the server's default model. A port outside 1-65535 (0-65535 for
// serve), a request count below 1, a connection count outside 1-64 or a
// feature that is not a number prints the usage text and exits 2 before
// anything is dialed or started.
//
// Typical session:
//   ./build/serve_client serve 7447 &
//   ./build/serve_client ping 7447
//   ./build/serve_client models 7447
//   ./build/serve_client predict 7447 --model demo-compact "$(python3 -c 'print(",".join(["0.5"]*30))')"
//   ./build/serve_client load 7447 1000 4

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "predict/flat_ensemble.h"
#include "serve/registry/model_registry.h"
#include "serve/retry.h"
#include "serve/serving_front_end.h"
#include "serve/wire/socket_client.h"
#include "serve/wire/socket_server.h"

namespace {

using namespace treewm;

/// A default server sheds every connection beyond its max_connections, so
/// `load` opens at most that many.
const int64_t kMaxLoadConnections =
    static_cast<int64_t>(serve::wire::SocketServerOptions{}.max_connections);

int Usage() {
  std::fprintf(stderr,
               "usage: serve_client serve [port]\n"
               "       serve_client ping <port>\n"
               "       serve_client models <port>\n"
               "       serve_client predict [--model <id>] <port> f1,f2,...\n"
               "       serve_client load [--model <id>] <port> <requests> "
               "[connections]\n"
               "ports are 1-65535 (serve: 0-65535, 0 = kernel-picked), "
               "requests >= 1, connections 1-%lld\n",
               static_cast<long long>(kMaxLoadConnections));
  return 2;
}

/// Parses `text` as an integer in [lo, hi]; false on anything else.
bool ParseIntIn(const std::string& text, int64_t lo, int64_t hi, int64_t* out) {
  return ParseInt64(text, out) && *out >= lo && *out <= hi;
}

/// Removes a `--model <id>` pair from `args` (anywhere) and returns the id;
/// empty when absent (= speak protocol v1).
std::string ExtractModelFlag(std::vector<std::string>* args) {
  for (size_t i = 0; i + 1 < args->size(); ++i) {
    if ((*args)[i] == "--model") {
      std::string id = (*args)[i + 1];
      args->erase(args->begin() + i, args->begin() + i + 2);
      return id;
    }
  }
  return "";
}

/// Parses "f1,f2,..."; false when any field (an empty one too) is not a
/// number.
bool ParseFeatures(const std::string& csv, std::vector<float>* features) {
  for (const std::string& field : StrSplit(csv, ',')) {
    double value = 0.0;
    if (!ParseDouble(field, &value)) return false;
    features->push_back(static_cast<float>(value));
  }
  return true;
}

std::shared_ptr<const predict::FlatEnsemble> TrainDemoModel(
    const data::Dataset& train, size_t num_trees, uint64_t seed) {
  forest::ForestConfig config;
  config.num_trees = num_trees;
  config.seed = seed;
  auto forest = forest::RandomForest::Fit(train, {}, config).MoveValue();
  return std::make_shared<const predict::FlatEnsemble>(
      predict::FlatEnsemble::FromClassificationTrees(forest.trees()));
}

int RunServe(uint16_t port) {
  data::Dataset dataset = data::synthetic::MakeBreastCancerLike(/*seed=*/2025);
  Rng rng(1);
  auto split =
      data::MakeTrainTest(dataset, /*test_fraction=*/0.3, &rng).MoveValue();

  serve::ModelRegistryOptions registry_options;
  registry_options.serving.queue.capacity = 256;
  registry_options.serving.queue.shed_high_water = 192;
  registry_options.serving.queue.max_batch_rows = 32;
  registry_options.serving.queue.max_batch_delay = std::chrono::milliseconds(1);
  auto registry = serve::ModelRegistry::Create(registry_options);
  if (!registry.ok()) {
    std::fprintf(stderr, "serve: %s\n", registry.status().ToString().c_str());
    return 1;
  }
  const Status demo =
      registry.value()->Load("demo", TrainDemoModel(split.train, 16, 5));
  const Status compact =
      registry.value()->Load("demo-compact", TrainDemoModel(split.train, 5, 6));
  if (!demo.ok() || !compact.ok()) {
    std::fprintf(stderr, "serve: %s\n",
                 (demo.ok() ? compact : demo).ToString().c_str());
    return 1;
  }

  serve::wire::SocketServerOptions wire_options;
  wire_options.port = port;
  wire_options.default_model = "demo";
  auto server =
      serve::wire::SocketServer::Create(registry.value().get(), wire_options);
  if (!server.ok()) {
    std::fprintf(stderr, "serve: %s\n", server.status().ToString().c_str());
    return 1;
  }
  for (const serve::ModelEntryInfo& info : registry.value()->List()) {
    std::printf("model '%s': %s, checksum %08x\n", info.id.c_str(),
                serve::ModelStateName(info.state), info.checksum);
  }
  std::printf("serving %zu models on 127.0.0.1:%u (default 'demo')\n",
              registry.value()->List().size(), server.value()->port());
  std::printf("press enter (or close stdin) to drain and exit\n");
  std::fflush(stdout);
  (void)std::getchar();  // blocks until input or EOF

  server.value()->Shutdown();
  const serve::wire::WireStats stats = server.value()->stats();
  registry.value()->Shutdown();
  std::printf(
      "wire: %llu conns (%llu shed), %llu requests + %llu model lists -> "
      "%llu responses + %llu refusals + %llu dropped, %llu parse errors\n",
      (unsigned long long)stats.connections_accepted,
      (unsigned long long)stats.connections_shed,
      (unsigned long long)stats.requests_received,
      (unsigned long long)stats.models_requests,
      (unsigned long long)stats.responses_sent,
      (unsigned long long)stats.refusals_sent,
      (unsigned long long)stats.responses_dropped,
      (unsigned long long)stats.parse_errors);
  return 0;
}

int RunPing(uint16_t port) {
  serve::wire::SocketClientOptions options;
  options.port = port;
  serve::wire::SocketClient client(options);
  const Status status = client.Ping();
  std::printf("ping 127.0.0.1:%u: %s\n", port, status.ToString().c_str());
  return status.ok() ? 0 : 1;
}

int RunModels(uint16_t port) {
  serve::wire::SocketClientOptions options;
  options.port = port;
  serve::wire::SocketClient client(options);
  auto models = client.ListModels();
  if (!models.ok()) {
    std::fprintf(stderr, "models: %s\n", models.status().ToString().c_str());
    return 1;
  }
  for (const serve::wire::ModelInfoMsg& row : models.value()) {
    std::printf(
        "model '%s': %s, checksum %08x, %llu submitted, %llu ok, %llu shed\n",
        row.id.c_str(),
        serve::ModelStateName(static_cast<serve::ModelState>(row.state)),
        row.checksum, (unsigned long long)row.submitted,
        (unsigned long long)row.completed_ok, (unsigned long long)row.shed);
  }
  return 0;
}

int RunPredict(uint16_t port, const std::vector<float>& features,
               const std::string& model_id) {
  serve::wire::SocketClientOptions options;
  options.port = port;
  options.model_id = model_id;
  serve::wire::SocketClient client(options);
  serve::RetryPolicy policy;
  auto result = client.PredictWithRetry(features, policy);
  if (!result.ok()) {
    std::fprintf(stderr, "predict: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("label %+d, votes", result.value().label);
  for (int8_t vote : result.value().votes) std::printf(" %+d", (int)vote);
  std::printf("\n");
  return 0;
}

/// Sends exactly `requests` predictions: each of `connections` connections
/// sends requests / connections, and the first requests % connections send
/// one more.
int RunLoad(uint16_t port, size_t requests, size_t connections,
            const std::string& model_id) {
  connections = std::min(connections, requests);
  data::Dataset dataset = data::synthetic::MakeBreastCancerLike(/*seed=*/2025);
  const size_t per_conn = requests / connections;
  const size_t extra = requests % connections;
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> refused{0};
  std::atomic<uint64_t> failed{0};
  ThreadPool pool(connections);
  for (size_t c = 0; c < connections; ++c) {
    const Status submitted = pool.Submit([&, c] {
      serve::wire::SocketClientOptions options;
      options.port = port;
      options.model_id = model_id;
      serve::wire::SocketClient client(options);
      serve::RetryPolicy policy;
      policy.seed = c + 1;
      const size_t first = c * per_conn + std::min(c, extra);
      const size_t count = per_conn + (c < extra ? 1 : 0);
      for (size_t i = 0; i < count; ++i) {
        auto row = dataset.Row((first + i) % dataset.num_rows());
        auto result = client.PredictWithRetry(row, policy);
        if (result.ok()) {
          served.fetch_add(1, std::memory_order_relaxed);
        } else if (result.status().code() == StatusCode::kResourceExhausted) {
          refused.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    if (!submitted.ok()) {
      std::fprintf(stderr, "load: %s\n", submitted.ToString().c_str());
      return 1;
    }
  }
  pool.Shutdown();
  std::printf("load: %llu served, %llu refused (overload), %llu failed over "
              "%zu connection(s)%s%s\n",
              (unsigned long long)served.load(),
              (unsigned long long)refused.load(),
              (unsigned long long)failed.load(), connections,
              model_id.empty() ? "" : " to model ",
              model_id.empty() ? "" : model_id.c_str());
  return failed.load() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  const std::string model_id = ExtractModelFlag(&args);
  int64_t port = 0;
  if (command == "serve") {
    if (!args.empty() && !ParseIntIn(args[0], 0, 65535, &port)) return Usage();
    return RunServe(static_cast<uint16_t>(port));
  }
  if (args.empty() || !ParseIntIn(args[0], 1, 65535, &port)) return Usage();
  if (command == "ping") return RunPing(static_cast<uint16_t>(port));
  if (command == "models") return RunModels(static_cast<uint16_t>(port));
  if (command == "predict" && args.size() >= 2) {
    std::vector<float> features;
    if (!ParseFeatures(args[1], &features)) return Usage();
    return RunPredict(static_cast<uint16_t>(port), features, model_id);
  }
  if (command == "load" && args.size() >= 2) {
    int64_t requests = 0;
    int64_t connections = 1;
    if (!ParseIntIn(args[1], 1, std::numeric_limits<int64_t>::max(), &requests) ||
        (args.size() >= 3 &&
         !ParseIntIn(args[2], 1, kMaxLoadConnections, &connections))) {
      return Usage();
    }
    return RunLoad(static_cast<uint16_t>(port), static_cast<size_t>(requests),
                   static_cast<size_t>(connections), model_id);
  }
  return Usage();
}
