// Axis-aligned box constraints over feature space.
//
// A decision-tree leaf is reachable exactly by the points in an axis-aligned
// box whose per-feature intervals use the half-open convention (lo, hi]
// induced by "x_f <= v goes left". The forgery solver intersects such boxes;
// Box supports trail-based undo so backtracking is O(changes).

#ifndef TREEWM_SMT_BOX_H_
#define TREEWM_SMT_BOX_H_

#include <span>
#include <vector>

#include "common/status.h"

namespace treewm::smt {

/// Half-open interval (lo, hi]; lo is exclusive, hi inclusive.
struct Interval {
  double lo;
  double hi;

  bool Empty() const { return !(lo < hi); }
  bool Contains(double x) const { return x > lo && x <= hi; }
};

/// A conjunction of per-feature intervals with undo support.
class Box {
 public:
  /// Creates the universal box over `num_features` dimensions.
  explicit Box(size_t num_features);

  size_t num_features() const { return intervals_.size(); }

  /// Current interval of feature `f`.
  const Interval& Get(int f) const { return intervals_[static_cast<size_t>(f)]; }

  /// Intersects feature `f` with (lo, hi]. Returns false (and leaves the box
  /// unchanged for that feature) when the intersection is empty.
  bool Constrain(int f, double lo, double hi);

  /// Intersects feature `f` with the float32 points of the closed interval
  /// [a, b] (used for the L∞ ball and the domain). Witnesses are float rows,
  /// so the bounds are snapped to the float grid: hi becomes the largest
  /// float <= b, and lo the double just below the smallest float >= a
  /// (that float stays feasible under the (lo, hi] convention). Tree
  /// thresholds are floats too, so every non-empty box then contains its
  /// float high end, and a box holding no float comes out empty.
  bool ConstrainClosed(int f, double a, double b);

  /// True if intersecting feature `f` with (lo, hi] would be non-empty;
  /// does not mutate.
  bool CompatibleWith(int f, double lo, double hi) const;

  /// Undo bookkeeping: Mark() returns a checkpoint; RevertTo() rolls back
  /// every Constrain since that checkpoint.
  size_t Mark() const { return trail_.size(); }
  void RevertTo(size_t mark);

  /// Restores the universal box and clears the trail, keeping allocated
  /// capacity (the solver's per-thread workspaces reuse one Box per anchor).
  void Reset();

  /// Picks a point inside the box, as close to `anchor` per-dimension as
  /// possible (anchor may be empty => midpoints / finite bounds are used).
  /// Requires every interval to be non-empty and bounded at least on one
  /// side; the [0,1] domain constraint guarantees this in practice.
  std::vector<float> Witness(std::span<const float> anchor) const;

 private:
  std::vector<Interval> intervals_;
  std::vector<std::pair<int, Interval>> trail_;
};

}  // namespace treewm::smt

#endif  // TREEWM_SMT_BOX_H_
