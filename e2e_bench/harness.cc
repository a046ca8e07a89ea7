#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "serve/registry/model_registry.h"
#include "serve/wire/socket_server.h"

namespace treewm::e2e {

// ------------------------------------------------------------- spans ----

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  Span span;
  span.name = name;
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.request = request;
  span.start_ns = tracer_->NowNs();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[static_cast<size_t>(index_)].end_ns = tracer_->NowNs();
  tracer_->open_.pop_back();
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() -
                                                              epoch_)
      .count();
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                 "\"request\":%llu}\n",
                 span.name.c_str(), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent,
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(f) == 0;
}

// -------------------------------------------------------- statistics ----

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  return values[static_cast<size_t>(std::llround(rank))];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t p99 = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
  const size_t index = n >= 11 ? std::min(n - 11, p99) : n - 1;
  tail.value = values[index];
  tail.percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return tail;
}

namespace {

constexpr size_t kWindows = 5;
constexpr size_t kMinWindow = 100;

/// `figure` of each of kWindows consecutive windows, or of all samples
/// (one entry) when a window would hold fewer than kMinWindow.
template <typename Figure>
std::vector<Figure> PerWindow(const std::vector<double>& in_order,
                              Figure (*figure)(std::vector<double>)) {
  const size_t window = in_order.size() / kWindows;
  if (window < kMinWindow) return {figure(in_order)};
  std::vector<Figure> out;
  for (size_t w = 0; w < kWindows; ++w) {
    const auto begin = in_order.begin() + static_cast<std::ptrdiff_t>(w * window);
    out.push_back(figure(std::vector<double>(begin, begin + static_cast<std::ptrdiff_t>(window))));
  }
  return out;
}

double MedianOf(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

}  // namespace

Tail WindowedTail(const std::vector<double>& in_order) {
  const std::vector<Tail> tails = PerWindow(in_order, &TailOf);
  if (tails.size() == 1) return tails[0];
  std::vector<double> values;
  for (const Tail& t : tails) values.push_back(t.value);
  Tail tail = tails[0];
  tail.value = Median(values);
  tail.windows = tails.size();
  return tail;
}

double WindowedMedian(const std::vector<double>& in_order) {
  return Median(PerWindow(in_order, &MedianOf));
}

std::string Tail::Label() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%.1f", percentile);
  return windows > 1 ? "median of " + std::to_string(windows) + " windows' " + buf : buf;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ metrics ----

void MetricTable::Declare(const std::string& name, const std::string& unit) {
  index_[name] = entries_.size();
  entries_.push_back({name, Metric{0.0, unit}});
}

void MetricTable::Set(const std::string& name, double value) {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    std::fprintf(stderr, "e2e_bench: undeclared metric %s\n", name.c_str());
    std::abort();
  }
  entries_[it->second].second.value = std::isfinite(value) ? value : 0.0;
}

std::string MetricTable::ToJson() const {
  std::string out = "{";
  char buf[512];
  for (size_t i = 0; i < entries_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", entries_[i].first.c_str(),
                  entries_[i].second.value, entries_[i].second.unit.c_str());
    out += buf;
  }
  return out + "}";
}

MetricTable EndToEndMetrics() {
  MetricTable t;
  t.Declare("setup_s", "s");
  t.Declare("peak_rss_mb", "MB");
  t.Declare("op_p50_ms", "ms");
  return t;
}

MetricTable LayerMetrics() {
  MetricTable t;
  // embed: Algorithm 1 stages, per embed (medians) unless noted.
  t.Declare("forest.grid_search_s", "s");
  t.Declare("core.adjust_s", "s");
  t.Declare("core.t0_s", "s");
  t.Declare("core.t1_s", "s");
  t.Declare("core.t0_rounds", "count");
  t.Declare("core.t1_rounds", "count");
  t.Declare("core.nonconverged", "count");
  t.Declare("forest.fit_ms_per_round", "ms");
  t.Declare("core.verify_ms", "ms");
  t.Declare("embed.stage_sum_s", "s");
  t.Declare("embed.residual_s", "s");
  t.Declare("embed.accuracy", "ratio");
  t.Declare("embed.tail_ms", "ms");
  // dispute: one verdict, in-process and over the wire.
  t.Declare("verdict.inproc_p50_ms", "ms");
  t.Declare("verdict.inproc_tail_ms", "ms");
  t.Declare("verdict.wire_p50_ms", "ms");
  t.Declare("verdict.wire_tail_ms", "ms");
  t.Declare("core.score_ms", "ms");
  t.Declare("predict.query_ms", "ms");
  t.Declare("predict.rows_per_s", "1/s");
  t.Declare("wire.encode_ms", "ms");
  t.Declare("wire.query_ms", "ms");
  t.Declare("wire.decode_ms", "ms");
  t.Declare("wire.bytes_per_verdict", "B");
  t.Declare("wire.frames_per_verdict", "count");
  t.Declare("wire.window_stalls", "count");
  // serve front-end counters, per model (suspect: dispute; hot/cold: serve).
  for (const char* model : {"suspect", "hot", "cold"}) {
    const std::string p = std::string("serve.") + model + ".";
    t.Declare(p + "rows_per_batch", "rows");
    t.Declare(p + "batches", "count");
    t.Declare(p + "queue_high_water", "count");
    t.Declare(p + "degraded_flushes", "count");
    t.Declare(p + "expired", "count");
  }
  // wire server counters (dispute and serve).
  t.Declare("wire.frames_received", "count");
  t.Declare("wire.responses_sent", "count");
  t.Declare("wire.refusals_sent", "count");
  t.Declare("wire.responses_dropped", "count");
  // serve: registry outcomes per ladder rate, load generator validity.
  for (int rate : kHotLadderRps) {
    const std::string p = "hot.r" + std::to_string(rate) + ".";
    t.Declare(p + "sent", "count");
    t.Declare(p + "ok", "count");
    t.Declare(p + "shed", "count");
    t.Declare(p + "failed", "count");
    t.Declare(p + "p50_ms", "ms");
    t.Declare(p + "tail_ms", "ms");
  }
  t.Declare("serve.max_rate_rps", "1/s");
  t.Declare("serve.good_share_over", "share");
  t.Declare("cold.tail_ms", "ms");
  t.Declare("cold.tail_ms_alone", "ms");
  t.Declare("gen.late_p99_us", "us");
  t.Declare("wire.client_send_us", "us");
  t.Declare("wire.rtt_us", "us");
  t.Declare("io.snapshot_load_ms", "ms");
  // forge: solver stages, per attack (medians) unless noted.
  t.Declare("smt.compile_ms", "ms");
  t.Declare("smt.solve_s", "s");
  t.Declare("smt.validate_ms", "ms");
  t.Declare("smt.nodes", "count");
  t.Declare("smt.nodes_per_s", "1/s");
  t.Declare("smt.budget_node_share", "share");
  t.Declare("attacks.forged", "count");
  t.Declare("attacks.unsat", "count");
  t.Declare("attacks.budget_exhausted", "count");
  t.Declare("forge.stage_sum_ms", "ms");
  t.Declare("forge.residual_ms", "ms");
  t.Declare("forge.tail_ms", "ms");
  // the tracer itself.
  t.Declare("trace.overhead_ms", "ms");
  t.Declare("trace.spans", "count");
  return t;
}

void RunReport::Fail(const std::string& what) {
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
}

void ShutdownAndAccount(serve::wire::SocketServer* server, serve::ModelRegistry* registry,
                        RunReport* report, bool traced) {
  server->Shutdown();
  const serve::wire::WireStats wire = server->stats();
  if (wire.requests_received + wire.models_requests !=
      wire.responses_sent + wire.refusals_sent + wire.responses_dropped) {
    report->Fail("wire accounting identity does not close");
  }
  const std::vector<serve::ModelEntryInfo> models = registry->List();
  registry->Shutdown();
  const serve::RegistryStats reg = registry->stats();
  if (reg.submitted !=
      reg.serving.submitted + reg.refused_unknown_model + reg.refused_not_serving) {
    report->Fail("registry accounting identity does not close");
  }
  if (!traced) return;
  MetricTable& m = report->metrics;
  m.Set("wire.frames_received", static_cast<double>(wire.frames_received));
  m.Set("wire.responses_sent", static_cast<double>(wire.responses_sent));
  m.Set("wire.refusals_sent", static_cast<double>(wire.refusals_sent));
  m.Set("wire.responses_dropped", static_cast<double>(wire.responses_dropped));
  for (const serve::ModelEntryInfo& info : models) {
    const serve::ServingStats& s = info.serving;
    const std::string p = "serve." + info.id + ".";
    m.Set(p + "rows_per_batch", s.batches == 0 ? 0.0
                                               : static_cast<double>(s.batched_rows) /
                                                     static_cast<double>(s.batches));
    m.Set(p + "batches", static_cast<double>(s.batches));
    m.Set(p + "queue_high_water", static_cast<double>(s.queue_high_water));
    m.Set(p + "degraded_flushes", static_cast<double>(s.degraded_flushes));
    m.Set(p + "expired",
          static_cast<double>(s.expired_admission + s.expired_dispatch + s.expired_completion));
  }
}

// ------------------------------------------------------------ inputs ----

uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  // SplitMix64 finalizer over a mix of the three words.
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
               index * 0x94D049BB133111EBULL + 0x2545F4914F6CDD1DULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<size_t> DrawRows(size_t population, size_t count, Rng* rng) {
  std::vector<size_t> rows = rng->SampleWithoutReplacement(population, count);
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string Note(const std::string& name, double value, const std::string& unit,
                 const std::string& extra) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-24s %14.6g %-6s %s", name.c_str(), value,
                unit.c_str(), extra.c_str());
  return buf;
}

}  // namespace treewm::e2e
