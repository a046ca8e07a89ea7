// End-to-end benchmark of treewm's three paper operations and its
// serving stack. See e2e_bench/README.md for the workloads and metrics.
//
//   e2e_bench --workload embed|dispute|forge|serve --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//
// Prints human-readable notes, then (last line) one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits non-zero when any correctness or accounting check fails.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload embed|dispute|forge|serve "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace treewm::e2e;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0) Usage("--seconds must be positive");

  RunReport report;
  report.metrics = options.trace ? LayerMetrics() : EndToEndMetrics();
  report.notes.push_back(
      Note("nproc", static_cast<double>(std::thread::hardware_concurrency()), ""));
  if (options.workload == "embed") {
    RunEmbed(options, &report);
  } else if (options.workload == "dispute") {
    RunDispute(options, &report);
  } else if (options.workload == "forge") {
    RunForge(options, &report);
  } else if (options.workload == "serve") {
    RunServe(options, &report);
  } else {
    Usage("unknown workload");
  }

  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.metrics.ToJson().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
