// Shared pieces of the end-to-end benchmark: span recorder, sample
// statistics, the metric table every workload reports into, and the
// seeded input helpers.
//
// Spans are recorded only by the benchmark's own code, around each call it
// makes into a library layer; nothing inside src/ is instrumented.

#ifndef TREEWM_E2E_BENCH_HARNESS_H_
#define TREEWM_E2E_BENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"

namespace treewm::serve {
class ModelRegistry;
namespace wire {
class SocketServer;
}  // namespace wire
}  // namespace treewm::serve

namespace treewm::e2e {

using SteadyClock = std::chrono::steady_clock;

inline double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

// ------------------------------------------------------------- spans ----

/// In-memory span recorder: name, start, end, parent span and request id.
/// Single-threaded by contract — only the driving thread of a workload
/// opens spans. Disabled recorders cost one branch per scope.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  ///< index into spans(), -1 = root
    uint64_t request = 0;
  };

  /// RAII span. Nests under whichever span is open on this tracer.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(SteadyClock::now()) {}

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (seconds) of every closed span called `name`, in order.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes one JSON object per span (JSON lines).
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t NowNs() const;

  bool enabled_;
  SteadyClock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// -------------------------------------------------------- statistics ----

/// Quantile q in [0,1] of `values` (nearest rank on a sorted copy).
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }
double Mean(const std::vector<double>& values);

/// The tail: the highest percentile, at most p99, that still has at least
/// ten samples beyond it (with n >= 11 sorted samples, index
/// min(n - 11, ceil(0.99 n) - 1)); the maximum below eleven samples.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< in [0,100]
  size_t windows = 1;       ///< > 1: median over that many windows' tails

  /// "p98.6", or "median of 5 windows' p99.0".
  std::string Label() const;
};
Tail TailOf(std::vector<double> values);

/// Figures that one slow stretch of the host cannot move: with at least
/// 5 × 100 samples, the samples (in the order they were taken) are cut into
/// five consecutive windows and the result is the median of the windows'
/// figures; with fewer, the figure over all samples.
Tail WindowedTail(const std::vector<double>& in_order);
double WindowedMedian(const std::vector<double>& in_order);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

// ------------------------------------------------------------ metrics ----

/// One reported number.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Ordered metric table. Layer metrics are pre-declared (LayerMetrics()) so
/// every workload's traced run reports the same key set; layers a workload
/// never calls read 0.
class MetricTable {
 public:
  void Declare(const std::string& name, const std::string& unit);
  /// Sets a declared metric (aborts on an undeclared name: a typo must not
  /// silently vanish from the report).
  void Set(const std::string& name, double value);
  /// `{"name": {"value": v, "unit": "u"}, ...}`
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, Metric>> entries_;
  std::map<std::string, size_t> index_;
};

/// The end-to-end metric set (identical for every workload).
MetricTable EndToEndMetrics();
/// The per-layer metric set (identical for every workload).
MetricTable LayerMetrics();

// -------------------------------------------------------- workloads ----

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  ///< scratch files (snapshots, span dumps)
};

/// What a workload hands back to main().
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricTable metrics;  ///< end-to-end (untraced) or per-layer (traced)
  /// Human-readable lines printed before the JSON result (named metrics
  /// with sample counts, check failures).
  std::vector<std::string> notes;

  /// Records a failed correctness/accounting check.
  void Fail(const std::string& what);
};

/// Each workload fills `out`, whose metric table main() has already set to
/// EndToEndMetrics() or, for traced runs, LayerMetrics().
void RunEmbed(const RunOptions& options, RunReport* out);
void RunDispute(const RunOptions& options, RunReport* out);
void RunForge(const RunOptions& options, RunReport* out);
void RunServe(const RunOptions& options, RunReport* out);

/// Drains `server`, then the `registry` it borrows, and fails `report`
/// unless the wire and registry accounting identities close. A traced run
/// also records the wire server's counters and every model's front-end
/// counters (serve.<model id>.*).
void ShutdownAndAccount(serve::wire::SocketServer* server, serve::ModelRegistry* registry,
                        RunReport* report, bool traced);

// ------------------------------------------------------------ inputs ----

/// Derives an independent stream seed from (run seed, stream, index).
uint64_t StreamSeed(uint64_t seed, uint64_t stream, uint64_t index = 0);

/// `count` distinct row indices of [0, population), drawn by `rng`.
std::vector<size_t> DrawRows(size_t population, size_t count, Rng* rng);

/// Runs `setup` `repetitions` times and returns the median wall time in
/// seconds (the state of the last repetition is what the caller keeps).
/// `teardown` releases the previous repetition's state, untimed.
template <typename SetupFn, typename TeardownFn>
double TimeSetup(int repetitions, SetupFn&& setup, TeardownFn&& teardown) {
  std::vector<double> times;
  for (int r = 0; r < repetitions; ++r) {
    if (r > 0) teardown();
    const auto start = SteadyClock::now();
    setup();
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

/// Set-up repetitions per run (setup_s is their median).
inline constexpr int kSetupRepetitions = 5;

/// The serve workload's fixed absolute offered rates for the `hot` model
/// (requests/s), lowest first, and its latency limit. Fixed here once so
/// every run and every commit is compared at the same load.
inline constexpr int kHotLadderRps[] = {5000, 50000, 100000, 150000};
inline constexpr double kServeLatencyLimitMs = 5.0;
/// The `cold` model's constant offered rate.
inline constexpr int kColdRps = 500;

/// Formats a note line: `name value unit (extra)`.
std::string Note(const std::string& name, double value, const std::string& unit,
                 const std::string& extra = "");

}  // namespace treewm::e2e

#endif  // TREEWM_E2E_BENCH_HARNESS_H_
