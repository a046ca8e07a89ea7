// Ownership dispute: the full Alice / Bob / Charlie protocol from §3.2.
//
// Alice trains and watermarks a fraud-detection model (imbalanced tabular
// data, the ijcnn1-like workload). Bob steals the model and serves it behind
// an API (white-box access for him, but he dares not modify it). Alice sues;
// Charlie — the legal authority — receives Alice's escrow bundle, queries
// Bob's API black-box on a batch where the trigger instances hide among
// ordinary test rows, and rules.
//
// The example also shows both ways the ruling can go: Bob's stolen model
// verifies, while an independent model trained by honest Carol does not.

#include <cstdio>

#include "core/verification.h"
#include "core/watermark.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "io/model_io.h"

int main() {
  using namespace treewm;

  std::printf("=== Act 1: Alice trains and watermarks ===\n");
  data::Dataset dataset = data::synthetic::MakeIjcnn1Like(/*seed=*/99, 4000);
  Rng rng(5);
  auto split = data::MakeTrainTest(dataset, 0.3, &rng).MoveValue();

  core::Signature sigma = core::Signature::Random(/*length=*/48, 0.5, &rng);
  core::WatermarkConfig config;
  config.seed = 11;
  config.trigger_fraction = 0.02;
  // Imbalanced data embeds slowly under +1 weight bumps; be generous.
  config.trigger_training.max_boost_rounds = 400;
  core::Watermarker watermarker(config);
  auto alice_model = watermarker.CreateWatermark(split.train, sigma).MoveValue();
  std::printf("Alice's model: %zu trees, accuracy %.4f, trigger %zu instances\n",
              alice_model.model.num_trees(), alice_model.model.Accuracy(split.test),
              alice_model.trigger_set.num_rows());

  // Alice escrows her bundle (signature + trigger + model snapshot).
  const std::string escrow = "/tmp/treewm_escrow.json";
  if (Status s = io::SaveBundle(io::BundleFrom(alice_model), escrow); !s.ok()) {
    std::printf("escrow failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("\n=== Act 2: Bob steals the model ===\n");
  // Bob got the model file wholesale; he serves it unmodified (§3.1's threat
  // model: integrity-protected deployment, or fear of accuracy loss).
  auto bob_copy = io::LoadBundle(escrow).MoveValue().model;
  std::printf("Bob serves an identical copy (%zu trees).\n", bob_copy.num_trees());

  // Honest Carol trains her own model on her own (similar) data.
  forest::ForestConfig carol_config;
  carol_config.num_trees = 48;
  carol_config.tree = alice_model.tuned_config;
  carol_config.seed = 1234;
  auto carol_data = data::synthetic::MakeIjcnn1Like(/*seed=*/123, 4000);
  Rng carol_rng(6);
  auto carol_split = data::MakeTrainTest(carol_data, 0.3, &carol_rng).MoveValue();
  auto carol_model =
      forest::RandomForest::Fit(carol_split.train, {}, carol_config).MoveValue();
  std::printf("Carol's independent model: accuracy %.4f\n",
              carol_model.Accuracy(split.test));

  std::printf("\n=== Act 3: Charlie adjudicates ===\n");
  auto bundle = io::LoadBundle(escrow).MoveValue();
  core::VerificationRequest request{bundle.signature, bundle.trigger_set,
                                    split.test};
  Rng charlie(7);

  core::ForestBlackBox bob_api(bob_copy);
  auto bob_report =
      core::VerificationAuthority::Verify(bob_api, request, &charlie).MoveValue();
  std::printf("Bob:   matched %zu/%zu trigger instances, bit rate %.3f, "
              "log10 p = %.1f -> %s\n",
              bob_report.matching_instances, bob_report.trigger_size,
              bob_report.bit_match_rate, bob_report.log10_p_value,
              bob_report.verified || bob_report.conclusive()
                  ? "GUILTY (watermark present)"
                  : "inconclusive");

  core::ForestBlackBox carol_api(carol_model);
  auto carol_report =
      core::VerificationAuthority::Verify(carol_api, request, &charlie).MoveValue();
  std::printf("Carol: matched %zu/%zu trigger instances, bit rate %.3f, "
              "log10 p = %.1f -> %s\n",
              carol_report.matching_instances, carol_report.trigger_size,
              carol_report.bit_match_rate, carol_report.log10_p_value,
              carol_report.verified ? "guilty?!" : "INNOCENT (no watermark)");

  return ((bob_report.verified || bob_report.conclusive()) &&
          !carol_report.verified && !carol_report.conclusive())
             ? 0
             : 1;
}
