// Multi-model serving demo: the crash-safe model registry end to end.
//
//   1. train two forests, snapshot one to disk, and load both into a
//      ModelRegistry — one from memory, one cold-started from the binary
//      snapshot (bit-identical serving either way),
//   2. put a SocketServer in registry mode in front: a v1 client (no model
//      id) lands on the default model, a v2 client addresses "compact" by
//      name, and the models listing comes back over the wire,
//   3. hot-reload the default model under traffic — the swap is atomic, so
//      every request completes on exactly one image and nothing is dropped,
//   4. crash-loop a reload with an injected fault until the circuit breaker
//      opens: the old image keeps serving, further reloads are refused
//      typed, and Unload + Load resets the breaker,
//   5. drain and check the registry accounting identity closes exactly.
//
// Build & run:  cmake --build build && ./build/example_multi_model_serving
//
// The same stack is scriptable from a shell via the CLI:
//   ./build/serve_client serve 7070          # two models, ^D to stop
//   ./build/serve_client models 7070
//   ./build/serve_client predict 7070 --model demo-compact 0.5,...,42.5

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/fault_injection.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "io/ensemble_snapshot.h"
#include "predict/flat_ensemble.h"
#include "serve/registry/model_registry.h"
#include "serve/wire/socket_client.h"
#include "serve/wire/socket_server.h"

namespace {

using namespace treewm;

std::shared_ptr<const predict::FlatEnsemble> TrainImage(uint64_t seed,
                                                        size_t num_trees) {
  auto dataset = data::synthetic::MakeBlobs(seed, 300, 6, 1.5);
  forest::ForestConfig config;
  config.num_trees = num_trees;
  config.seed = seed;
  auto forest = forest::RandomForest::Fit(dataset, {}, config).MoveValue();
  return std::make_shared<const predict::FlatEnsemble>(
      predict::FlatEnsemble::FromClassificationTrees(forest.trees()));
}

}  // namespace

int main() {
  using std::chrono::microseconds;

  // 1. Two models into one registry; "compact" cold-starts from a binary
  //    snapshot exactly as a restarted server would.
  auto main_image = TrainImage(/*seed=*/2025, /*num_trees=*/16);
  auto compact_image = TrainImage(/*seed=*/7, /*num_trees=*/5);
  const std::string snapshot_path = "/tmp/treewm_demo_compact.twsn";
  if (!io::SaveEnsembleSnapshot(*compact_image, snapshot_path).ok()) return 1;

  serve::ModelRegistryOptions registry_options;
  registry_options.serving.queue.capacity = 256;
  registry_options.serving.queue.max_batch_rows = 16;
  registry_options.serving.queue.max_batch_delay = microseconds(100);
  registry_options.reload_breaker_threshold = 2;
  auto registry = serve::ModelRegistry::Create(registry_options).MoveValue();
  if (!registry->Load("main", main_image).ok()) return 1;
  if (!registry->LoadFromSnapshot("compact", snapshot_path).ok()) return 1;
  for (const serve::ModelEntryInfo& info : registry->List()) {
    std::printf("model '%s': %s, checksum %08x\n", info.id.c_str(),
                serve::ModelStateName(info.state), info.checksum);
  }

  // 2. Registry-mode wire front door: v1 clients land on default_model.
  serve::wire::SocketServerOptions server_options;
  server_options.default_model = "main";
  auto server =
      serve::wire::SocketServer::Create(registry.get(), server_options)
          .MoveValue();
  std::printf("serving %zu models on 127.0.0.1:%u (default 'main')\n",
              registry->List().size(), server->port());

  const std::vector<float> probe = {0.5f, -1.25f, 3.0f, 0.0f, -0.0f, 2.5f};
  serve::wire::SocketClientOptions v1_options;
  v1_options.port = server->port();
  serve::wire::SocketClient v1_client(v1_options);
  auto via_default = v1_client.Predict(probe).MoveValue();
  auto in_process = registry->Predict("main", probe).MoveValue();
  std::printf("v1 client -> default model: label %+d (%s in-process)\n",
              via_default.label,
              via_default.label == in_process.label &&
                      via_default.votes == in_process.votes
                  ? "bit-identical to"
                  : "MISMATCHES");

  serve::wire::SocketClientOptions v2_options = v1_options;
  v2_options.model_id = "compact";
  serve::wire::SocketClient v2_client(v2_options);
  auto via_id = v2_client.Predict(probe).MoveValue();
  std::printf("v2 client -> 'compact': label %+d with %zu votes\n", via_id.label,
              via_id.votes.size());
  for (const auto& row : v1_client.ListModels().MoveValue()) {
    std::printf("  wire listing: '%s' state %u, %llu submitted\n",
                row.id.c_str(), row.state,
                (unsigned long long)row.submitted);
  }

  // 3. Atomic hot reload under traffic: retrain "main" and swap it in while
  //    requests flow. Every request completes on exactly one image.
  auto retrained = TrainImage(/*seed=*/2026, /*num_trees=*/16);
  size_t completed = 0;
  for (int i = 0; i < 50; ++i) {
    if (i == 20 && !registry->Reload("main", retrained).ok()) return 1;
    completed += registry->Predict("main", probe).ok() ? 1 : 0;
  }
  std::printf("hot reload under traffic: %zu/50 completed, 0 dropped\n",
              completed);

  // 4. Crash-looping reload -> circuit breaker. The old image keeps
  //    serving throughout; reset is an explicit operator action.
  {
    FaultSpec always;
    ScopedFault crash("serve.registry.load.fail", always);
    for (int attempt = 0; attempt < 2; ++attempt) {
      const Status failed = registry->Reload("main", retrained);
      std::printf("reload attempt %d: %s\n", attempt + 1,
                  StatusCodeName(failed.code()));
    }
  }
  const Status refused = registry->Reload("main", retrained);  // fault gone
  std::printf("breaker open: healthy reload refused as %s; serving %s\n",
              StatusCodeName(refused.code()),
              registry->Predict("main", probe).ok() ? "continues" : "BROKEN");
  if (!registry->Unload("main").ok()) return 1;
  if (!registry->Load("main", retrained).ok()) return 1;
  std::printf("unload + load resets the breaker: %s\n",
              registry->Reload("main", main_image).ok() ? "reload serves again"
                                                        : "STILL REFUSED");

  // 5. Drain everything; the registry accounting identity closes exactly:
  //    submitted == front-end submitted + refused_unknown + refused_not_serving.
  server->Shutdown();
  registry->Shutdown();
  const serve::RegistryStats stats = registry->stats();
  const bool closes =
      stats.submitted == stats.serving.submitted + stats.refused_unknown_model +
                             stats.refused_not_serving;
  std::printf(
      "registry stats: %llu submitted, %llu reloads ok, %llu reload failures, "
      "%llu breaker trips; accounting %s\n",
      (unsigned long long)stats.submitted, (unsigned long long)stats.reloads_ok,
      (unsigned long long)stats.reload_failures,
      (unsigned long long)stats.breaker_trips,
      closes ? "closes" : "DOES NOT CLOSE");
  std::remove(snapshot_path.c_str());
  return closes ? 0 : 1;
}
