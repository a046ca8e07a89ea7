// Synthetic stand-ins for the paper's evaluation datasets.
//
// The paper evaluates on MNIST2-6 (13,866 × 784, 51%/49%), breast-cancer
// (569 × 30, 63%/37%) and a stratified 10,000-row subsample of ijcnn1
// (22 features, 10%/90%), all normalized to [0,1] (Table 1). The original
// data files are not available offline, so we generate datasets matching
// those statistics and the qualitative properties the experiments rely on.
// Each stand-in, and the property of the original it keeps:
//
//  * Mnist26Like — 28×28 grayscale stroke-rendered "2"-like vs "6"-like
//    digits with translation/intensity/pixel noise. High-dimensional, RF
//    accuracy ≈0.99, and perturbed instances can be visualised (Figure 5).
//  * BreastCancerLike — 30 correlated tabular features from two latent-factor
//    Gaussian classes, 63/37 imbalance, small n.
//  * Ijcnn1Like — 22 features, strongly imbalanced (10% positives), with a
//    rugged nonlinear decision surface that forces deep trees (the property
//    behind ijcnn1's forgery-hardness in §4.2.2).
//
// All generators are deterministic functions of the seed.

#ifndef TREEWM_DATA_SYNTHETIC_H_
#define TREEWM_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace treewm::data::synthetic {

/// Full-size row counts from Table 1 of the paper.
inline constexpr size_t kMnist26Rows = 13866;
inline constexpr size_t kBreastCancerRows = 569;
inline constexpr size_t kIjcnn1Rows = 10000;

/// 28×28 digit-like images, two classes ("2"-like = -1, "6"-like = +1),
/// 51%/49% positive/negative mix, pixels in [0,1].
Dataset MakeMnist26Like(uint64_t seed, size_t num_rows = kMnist26Rows);

/// 30 correlated tabular features, 63% positive / 37% negative, in [0,1].
Dataset MakeBreastCancerLike(uint64_t seed, size_t num_rows = kBreastCancerRows);

/// 22 features, 10% positive / 90% negative, rugged decision surface, [0,1].
Dataset MakeIjcnn1Like(uint64_t seed, size_t num_rows = kIjcnn1Rows);

/// Simple two-Gaussian blob problem — small, easy, for tests.
Dataset MakeBlobs(uint64_t seed, size_t num_rows, size_t num_features,
                  double class_separation = 2.0, double positive_fraction = 0.5);

/// XOR-like checkerboard over the first two features — needs depth ≥ 2 trees;
/// for tests of tree expressiveness.
Dataset MakeXor(uint64_t seed, size_t num_rows, size_t num_features = 2);

/// Dispatch by paper dataset name ("mnist2-6", "breast-cancer", "ijcnn1");
/// `num_rows` of 0 means the Table-1 size.
[[nodiscard]] Result<Dataset> MakeByName(const std::string& name, uint64_t seed, size_t num_rows = 0);

/// Renders a 28×28 instance as ASCII art (for Figure-5-style inspection).
/// `features.size()` must be 784.
std::string RenderImageAscii(const std::vector<float>& features);

}  // namespace treewm::data::synthetic

#endif  // TREEWM_DATA_SYNTHETIC_H_
