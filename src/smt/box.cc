#include "smt/box.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace treewm::smt {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kFloatMax = std::numeric_limits<float>::max();
constexpr float kFloatInf = std::numeric_limits<float>::infinity();

/// Largest float32 value <= b, as a double (b not NaN).
double FloatAtOrBelow(double b) {
  if (b > kFloatMax) return std::isinf(b) ? kInf : kFloatMax;
  if (b < -kFloatMax) return -kInf;
  const float f = static_cast<float>(b);  // in range: rounds to nearest
  return static_cast<double>(f) > b ? std::nextafter(f, -kFloatInf) : f;
}

/// Smallest float32 value >= a, as a double (a not NaN).
double FloatAtOrAbove(double a) {
  if (a < -kFloatMax) return std::isinf(a) ? -kInf : -kFloatMax;
  if (a > kFloatMax) return kInf;
  const float f = static_cast<float>(a);
  return static_cast<double>(f) < a ? std::nextafter(f, kFloatInf) : f;
}
}  // namespace

Box::Box(size_t num_features) : intervals_(num_features, Interval{-kInf, kInf}) {}

bool Box::Constrain(int f, double lo, double hi) {
  Interval& current = intervals_[static_cast<size_t>(f)];
  const double new_lo = std::max(current.lo, lo);
  const double new_hi = std::min(current.hi, hi);
  if (!(new_lo < new_hi)) return false;
  if (new_lo == current.lo && new_hi == current.hi) return true;  // no change
  trail_.emplace_back(f, current);
  current = Interval{new_lo, new_hi};
  return true;
}

bool Box::ConstrainClosed(int f, double a, double b) {
  // (lo, hi] cannot express a closed lower bound exactly; one double below
  // the lowest feasible float keeps that float inside.
  const double lo = std::nextafter(FloatAtOrAbove(a), -kInf);
  return Constrain(f, lo, FloatAtOrBelow(b));
}

bool Box::CompatibleWith(int f, double lo, double hi) const {
  const Interval& current = intervals_[static_cast<size_t>(f)];
  return std::max(current.lo, lo) < std::min(current.hi, hi);
}

void Box::Reset() {
  trail_.clear();
  std::fill(intervals_.begin(), intervals_.end(), Interval{-kInf, kInf});
}

void Box::RevertTo(size_t mark) {
  assert(mark <= trail_.size());
  while (trail_.size() > mark) {
    const auto& [f, interval] = trail_.back();
    intervals_[static_cast<size_t>(f)] = interval;
    trail_.pop_back();
  }
}

std::vector<float> Box::Witness(std::span<const float> anchor) const {
  std::vector<float> out(intervals_.size());
  for (size_t f = 0; f < intervals_.size(); ++f) {
    const Interval& iv = intervals_[f];
    assert(!iv.Empty());
    double x;
    if (!anchor.empty()) {
      x = std::clamp(static_cast<double>(anchor[f]), iv.lo, iv.hi);
      if (!(x > iv.lo)) {
        // Anchor clamped onto the excluded lower endpoint: move inside.
        x = std::isfinite(iv.hi) ? (iv.lo + iv.hi) / 2.0
                                 : std::nextafter(iv.lo, kInf);
      }
    } else if (std::isfinite(iv.lo) && std::isfinite(iv.hi)) {
      x = (iv.lo + iv.hi) / 2.0;
    } else if (std::isfinite(iv.hi)) {
      x = iv.hi;
    } else if (std::isfinite(iv.lo)) {
      x = std::nextafter(iv.lo, kInf);
    } else {
      x = 0.0;
    }
    // Snap to float32 without leaving the interval.
    float xf = static_cast<float>(x);
    if (static_cast<double>(xf) <= iv.lo) xf = std::nextafter(xf, kFloatInf);
    if (static_cast<double>(xf) > iv.hi) xf = std::nextafter(xf, -kFloatInf);
    out[f] = xf;
  }
  return out;
}

}  // namespace treewm::smt
