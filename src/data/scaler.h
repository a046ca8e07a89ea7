// Min-max feature scaling to [0,1].
//
// The paper evaluates on datasets "normalized in the interval [0,1]" (§4);
// the forgery attack's ε-L∞-ball constraint (§4.2.2) assumes this range.

#ifndef TREEWM_DATA_SCALER_H_
#define TREEWM_DATA_SCALER_H_

#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace treewm::data {

/// Per-feature affine map onto [0,1] fitted on one dataset and applicable to
/// others (e.g. fit on train, apply to test).
class MinMaxScaler {
 public:
  /// Learns per-feature min/max from `dataset`. Constant features map to 0.
  [[nodiscard]] Status Fit(const Dataset& dataset);

  /// Applies the learned map in place, clamping to [0,1] so unseen data
  /// cannot escape the range.
  [[nodiscard]] Status Transform(Dataset* dataset) const;

  /// Fit followed by Transform on the same dataset.
  [[nodiscard]] Status FitTransform(Dataset* dataset);

  /// True once Fit succeeded.
  bool fitted() const { return !mins_.empty(); }

 private:
  std::vector<float> mins_;
  std::vector<float> maxs_;
};

}  // namespace treewm::data

#endif  // TREEWM_DATA_SCALER_H_
