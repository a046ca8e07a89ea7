// Quickstart: watermark a random forest in ~40 lines.
//
//   1. load (here: synthesize) a training set,
//   2. pick an owner signature,
//   3. run Algorithm 1 to get a watermarked ensemble + trigger set,
//   4. verify the watermark black-box, save the escrow bundle.
//
// Build & run:  cmake --build build && ./build/example_quickstart

#include <unistd.h>

#include <cstdio>
#include <string>

#include "core/verification.h"
#include "core/watermark.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "io/model_io.h"

namespace {

/// Removes the bundle file on every way out of main.
struct RemoveOnExit {
  std::string path;
  ~RemoveOnExit() { std::remove(path.c_str()); }
};

/// True iff `bundle` holds the signature and the trees of `watermarked`.
bool SameModelAndSignature(const treewm::io::WatermarkBundle& bundle,
                           const treewm::core::WatermarkedModel& watermarked) {
  if (!(bundle.signature == watermarked.signature) ||
      bundle.model.num_trees() != watermarked.model.num_trees()) {
    return false;
  }
  for (size_t t = 0; t < bundle.model.num_trees(); ++t) {
    if (!bundle.model.trees()[t].StructurallyEqual(watermarked.model.trees()[t])) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace treewm;

  // 1. Data: 569 instances × 30 features, labels ±1, normalized to [0,1].
  data::Dataset dataset = data::synthetic::MakeBreastCancerLike(/*seed=*/2025);
  Rng rng(1);
  auto split = data::MakeTrainTest(dataset, /*test_fraction=*/0.3, &rng).MoveValue();
  std::printf("train: %zu rows, test: %zu rows, %zu features\n",
              split.train.num_rows(), split.test.num_rows(),
              split.train.num_features());

  // 2. A 40-bit signature encoding who we are (bit i steers tree i).
  core::Signature sigma = core::Signature::FromText("Alice");
  std::printf("signature (%zu bits): %s\n", sigma.length(),
              sigma.ToBitString().c_str());

  // 3. Algorithm 1: grid search -> trigger sampling -> Adjust(H) ->
  //    T0/T1 training -> interleave.
  core::WatermarkConfig config;
  config.seed = 7;
  config.trigger_fraction = 0.02;
  core::Watermarker watermarker(config);
  auto watermarked = watermarker.CreateWatermark(split.train, sigma).MoveValue();
  std::printf("watermarked ensemble: %zu trees, trigger set: %zu instances\n",
              watermarked.model.num_trees(), watermarked.trigger_set.num_rows());
  std::printf("test accuracy: %.4f\n", watermarked.model.Accuracy(split.test));

  // 4. Black-box verification: the trigger hides inside a test batch.
  core::VerificationRequest request{watermarked.signature,
                                    watermarked.trigger_set, split.test};
  core::ForestBlackBox suspect(watermarked.model);
  Rng charlie(3);
  auto report =
      core::VerificationAuthority::Verify(suspect, request, &charlie).MoveValue();
  std::printf("verification: %s (matched %zu/%zu instances, log10 p = %.1f)\n",
              report.verified ? "WATERMARK PRESENT" : "not found",
              report.matching_instances, report.trigger_size,
              report.log10_p_value);

  // 5. Escrow everything needed for a future dispute, and read it back. The
  //    file name is per run, so two runs at once never touch each other's.
  const RemoveOnExit bundle_file{"/tmp/treewm_quickstart_bundle." +
                                 std::to_string(getpid()) + ".json"};
  Status round_trip = io::SaveBundle(io::BundleFrom(watermarked), bundle_file.path);
  if (round_trip.ok()) {
    auto loaded = io::LoadBundle(bundle_file.path);
    if (!loaded.ok()) {
      round_trip = loaded.status();
    } else if (!SameModelAndSignature(loaded.value(), watermarked)) {
      round_trip = Status::Internal("the bundle read back differs from the one saved");
    }
  }
  std::printf("bundle saved to %s and read back: %s\n", bundle_file.path.c_str(),
              round_trip.ok() ? "ok" : round_trip.ToString().c_str());
  return report.verified && round_trip.ok() ? 0 : 1;
}
