// Socket serving demo: the verification service behind a real TCP socket.
//
//   1. train a forest, load it into a one-model ModelRegistry, put a
//      SocketServer in front of it on an ephemeral loopback port,
//   2. ping the server and serve predictions over the wire, checking each
//      answer bit-for-bit against the in-process registry,
//   3. inject wire faults (1-byte short reads) and show the determinism
//      contract: the wire can change WHICH requests complete, never the
//      value a completed request is served,
//   4. show a wire deadline failing closed, then drain and read the
//      exactly-once accounting off the stats snapshot.
//
// Build & run:  cmake --build build && ./build/example_socket_serving_demo
//
// The same stack is scriptable from a shell via the CLI:
//   ./build/serve_client serve 7070          # foreground server, ^D to stop
//   ./build/serve_client ping 7070
//   ./build/serve_client predict 7070 0.5,-1.25,3.0,0.0,-0.0,42.5
//   ./build/serve_client load 7070 500 4     # 500 requests over 4 connections

#include <chrono>
#include <cstdio>

#include "common/fault_injection.h"
#include "data/synthetic.h"
#include "forest/random_forest.h"
#include "predict/flat_ensemble.h"
#include "serve/registry/model_registry.h"
#include "serve/retry.h"
#include "serve/wire/socket_client.h"
#include "serve/wire/socket_server.h"

int main() {
  using namespace treewm;
  using std::chrono::microseconds;
  using std::chrono::milliseconds;

  // 1. Model + one-model registry + socket server. Admission never blocks:
  //    the wire's backpressure is a typed refusal frame.
  data::Dataset dataset = data::synthetic::MakeBlobs(/*seed=*/2025, 300, 6, 1.5);
  forest::ForestConfig config;
  config.num_trees = 16;
  config.seed = 5;
  auto forest = forest::RandomForest::Fit(dataset, {}, config).MoveValue();
  auto flat = std::make_shared<predict::FlatEnsemble>(
      predict::FlatEnsemble::FromClassificationTrees(forest.trees()));

  serve::ModelRegistryOptions registry_options;
  registry_options.serving.queue.capacity = 256;
  registry_options.serving.queue.shed_high_water = 224;
  registry_options.serving.queue.max_batch_rows = 16;
  registry_options.serving.queue.max_batch_delay = microseconds(100);
  auto registry = serve::ModelRegistry::Create(registry_options).MoveValue();
  if (!registry->Load("demo", flat).ok()) return 1;

  serve::wire::SocketServerOptions server_options;
  server_options.port = 0;  // kernel-assigned; read back below
  server_options.max_connections = 8;
  server_options.max_in_flight_per_connection = 16;
  server_options.default_model = "demo";  // where v1 clients land
  auto server =
      serve::wire::SocketServer::Create(registry.get(), server_options).MoveValue();
  std::printf("serving %zu trees on 127.0.0.1:%u\n", flat->num_trees(),
              server->port());

  serve::wire::SocketClientOptions client_options;
  client_options.port = server->port();
  serve::wire::SocketClient client(client_options);

  // 2. Liveness, then predictions over the wire. Every answer must match
  //    the in-process registry bit for bit — the wire adds transport, not
  //    semantics.
  auto ping = client.Ping();
  std::printf("ping: %s\n", ping.ok() ? "pong" : ping.ToString().c_str());

  const size_t kProbes = 32;
  size_t agree = 0;
  for (size_t i = 0; i < kProbes; ++i) {
    auto row = dataset.Row(i);
    auto over_wire = client.Predict(row).MoveValue();
    auto in_process = registry->Predict("demo", row).MoveValue();
    agree += (over_wire.label == in_process.label &&
              over_wire.votes == in_process.votes)
                 ? 1
                 : 0;
  }
  std::printf("wire == in-process on %zu/%zu probes (label + votes)\n", agree,
              kProbes);

  // 3. Hostile transport: clamp every server-side read to 1 byte. Frames
  //    reassemble byte by byte; completed answers are still bit-identical.
  //    A polite client rides resets out with PredictWithRetry (retries only
  //    overload pushback and reset-class transport errors).
  {
    FaultSpec short_reads;
    short_reads.probability = 1.0;
    ScopedFault fault("serve.wire.read.short", short_reads);
    serve::RetryPolicy policy;
    policy.max_attempts = 4;
    policy.initial_backoff = milliseconds(1);
    policy.seed = 7;
    size_t still_agree = 0;
    for (size_t i = 0; i < kProbes; ++i) {
      auto row = dataset.Row(i);
      auto result = client.PredictWithRetry(row, policy);
      if (result.ok() &&
          result.value().label ==
              registry->Predict("demo", row).MoveValue().label) {
        ++still_agree;
      }
    }
    std::printf("under 1-byte reads: %zu/%zu served, all bit-identical\n",
                still_agree, kProbes);
  }

  // 4. Deadlines ride the request frame: a 1 ns budget is spent by the time
  //    the batch is dispatched, so the server refuses it with a typed error
  //    frame.
  auto expired = client.Predict(dataset.Row(0), std::chrono::nanoseconds(1));
  std::printf("1 ns deadline over the wire: %s (fails closed)\n",
              StatusCodeName(expired.status().code()));

  // Drain. After Shutdown() the wire accounting closes exactly once:
  // requests_received == responses_sent + refusals_sent + responses_dropped.
  server->Shutdown();
  auto stats = server->stats();
  std::printf(
      "wire stats: %llu requests -> %llu responses + %llu refusals + %llu "
      "dropped; %llu connections accepted, %llu closed\n",
      (unsigned long long)stats.requests_received,
      (unsigned long long)stats.responses_sent,
      (unsigned long long)stats.refusals_sent,
      (unsigned long long)stats.responses_dropped,
      (unsigned long long)stats.connections_accepted,
      (unsigned long long)stats.connections_closed);
  const bool closes = stats.requests_received ==
                      stats.responses_sent + stats.refusals_sent +
                          stats.responses_dropped;
  std::printf("accounting %s\n", closes ? "closes" : "DOES NOT CLOSE");
  registry->Shutdown();
  return closes ? 0 : 1;
}
