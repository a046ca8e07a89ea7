// Reproduces Table 1: dataset statistics (instances, features, class
// distribution) for the three evaluation datasets.
//
// Paper reference:
//   MNIST2-6       13,866 × 784   51%/49%
//   breast-cancer     569 ×  30   63%/37%
//   ijcnn1         20,000 →10,000 × 22   10%/90%

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace treewm;
  std::printf(
      "Table 1 — dataset statistics (synthetic stand-ins; rationale in "
      "src/data/synthetic.h)\n");
  bench::PrintRule();
  std::printf("%-16s %10s %10s %14s %14s\n", "Dataset", "Instances", "Features",
              "Distribution", "Paper");
  bench::PrintRule();
  struct Row {
    const char* name;
    const char* paper;
  };
  const Row rows[] = {{"mnist2-6", "51%/49%"},
                      {"breast-cancer", "63%/37%"},
                      {"ijcnn1", "10%/90%"}};
  for (const Row& row : rows) {
    auto dataset = data::synthetic::MakeByName(row.name, /*seed=*/42).MoveValue();
    const double pos = dataset.PositiveFraction() * 100.0;
    std::printf("%-16s %10zu %10zu %9.0f%%/%2.0f%% %14s\n", row.name,
                dataset.num_rows(), dataset.num_features(), pos, 100.0 - pos,
                row.paper);
    if (!dataset.AllValuesWithin(0.0f, 1.0f)) {
      std::printf("  WARNING: %s not normalized to [0,1]\n", row.name);
      return 1;
    }
  }
  bench::PrintRule();
  std::printf("All datasets normalized to [0,1] as in the paper (§4).\n");
  return 0;
}
