// Unit tests for the interval-box constraint store.

#include "smt/box.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"

namespace treewm::smt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(IntervalTest, ContainsUsesHalfOpenConvention) {
  Interval iv{0.2, 0.8};
  EXPECT_FALSE(iv.Contains(0.2));  // lower bound excluded
  EXPECT_TRUE(iv.Contains(0.8));   // upper bound included
  EXPECT_TRUE(iv.Contains(0.5));
  EXPECT_FALSE(iv.Contains(0.9));
  EXPECT_FALSE(iv.Empty());
  EXPECT_TRUE((Interval{0.5, 0.5}).Empty());
}

TEST(BoxTest, StartsUniversal) {
  Box box(3);
  for (int f = 0; f < 3; ++f) {
    EXPECT_EQ(box.Get(f).lo, -kInf);
    EXPECT_EQ(box.Get(f).hi, kInf);
  }
}

TEST(BoxTest, ConstrainIntersects) {
  Box box(2);
  EXPECT_TRUE(box.Constrain(0, 0.1, 0.9));
  EXPECT_TRUE(box.Constrain(0, 0.3, 1.5));
  EXPECT_DOUBLE_EQ(box.Get(0).lo, 0.3);
  EXPECT_DOUBLE_EQ(box.Get(0).hi, 0.9);
  EXPECT_EQ(box.Get(1).lo, -kInf);  // untouched dimension
}

TEST(BoxTest, EmptyIntersectionFailsWithoutMutation) {
  Box box(1);
  EXPECT_TRUE(box.Constrain(0, 0.0, 0.4));
  EXPECT_FALSE(box.Constrain(0, 0.6, 1.0));
  EXPECT_DOUBLE_EQ(box.Get(0).lo, 0.0);
  EXPECT_DOUBLE_EQ(box.Get(0).hi, 0.4);
}

TEST(BoxTest, DegenerateIntersectionIsEmpty) {
  // (a, b] ∩ (b, c] = empty under the half-open convention.
  Box box(1);
  EXPECT_TRUE(box.Constrain(0, -kInf, 0.5));
  EXPECT_FALSE(box.Constrain(0, 0.5, 1.0));
}

TEST(BoxTest, MarkRevertRestoresState) {
  Box box(2);
  EXPECT_TRUE(box.Constrain(0, 0.0, 1.0));
  const size_t mark = box.Mark();
  EXPECT_TRUE(box.Constrain(0, 0.2, 0.8));
  EXPECT_TRUE(box.Constrain(1, 0.4, 0.6));
  box.RevertTo(mark);
  EXPECT_DOUBLE_EQ(box.Get(0).lo, 0.0);
  EXPECT_DOUBLE_EQ(box.Get(0).hi, 1.0);
  EXPECT_EQ(box.Get(1).lo, -kInf);
}

TEST(BoxTest, NestedMarksRevertInLifoOrder) {
  Box box(1);
  EXPECT_TRUE(box.Constrain(0, 0.0, 1.0));
  const size_t outer = box.Mark();
  EXPECT_TRUE(box.Constrain(0, 0.1, 0.9));
  const size_t inner = box.Mark();
  EXPECT_TRUE(box.Constrain(0, 0.2, 0.8));
  box.RevertTo(inner);
  EXPECT_DOUBLE_EQ(box.Get(0).lo, 0.1);
  box.RevertTo(outer);
  EXPECT_DOUBLE_EQ(box.Get(0).lo, 0.0);
}

TEST(BoxTest, RedundantConstrainAddsNoTrailEntry) {
  Box box(1);
  EXPECT_TRUE(box.Constrain(0, 0.2, 0.8));
  const size_t mark = box.Mark();
  EXPECT_TRUE(box.Constrain(0, 0.0, 1.0));  // no-op: wider than current
  EXPECT_EQ(box.Mark(), mark);
}

TEST(BoxTest, ConstrainClosedKeepsLowerEndpointFeasible) {
  Box box(2);
  // Float endpoints are both feasible; their float neighbours outside are not.
  EXPECT_TRUE(box.ConstrainClosed(0, 0.25, 0.75));
  EXPECT_TRUE(box.Get(0).Contains(0.25));
  EXPECT_TRUE(box.Get(0).Contains(0.75));
  EXPECT_FALSE(box.Get(0).Contains(std::nextafter(0.25f, 0.0f)));
  EXPECT_FALSE(box.Get(0).Contains(std::nextafter(0.75f, 1.0f)));
  // Endpoints off the float grid keep exactly the floats of [a, b]: the
  // nearest float inside each end, and nothing beyond it.
  const double a = 0.3;
  const double b = 0.7;
  ASSERT_LT(static_cast<double>(0.7f), b);  // 0.7f is the largest float <= b
  ASSERT_GT(static_cast<double>(0.3f), a);  // 0.3f is the smallest float >= a
  EXPECT_TRUE(box.ConstrainClosed(1, a, b));
  EXPECT_TRUE(box.Get(1).Contains(0.3f));
  EXPECT_TRUE(box.Get(1).Contains(0.7f));
  EXPECT_FALSE(box.Get(1).Contains(std::nextafter(0.3f, 0.0f)));
  EXPECT_FALSE(box.Get(1).Contains(std::nextafter(0.7f, 1.0f)));
  EXPECT_FALSE(box.Get(1).Contains(b));  // b itself is not a float
}

TEST(BoxTest, ConstrainClosedWithoutFloatInsideIsEmpty) {
  // [v + ulp/4, v + 3ulp/4] lies strictly between two adjacent floats.
  const float v = 0.5f;
  const double ulp = static_cast<double>(std::nextafter(v, 1.0f)) - v;
  Box box(1);
  EXPECT_FALSE(box.ConstrainClosed(0, v + ulp / 4, v + 3 * ulp / 4));
  // A threshold constraint (v, +inf) plus a ball end short of the next
  // float leaves no float either.
  EXPECT_TRUE(box.Constrain(0, v, kInf));
  EXPECT_FALSE(box.ConstrainClosed(0, 0.0, v + ulp / 2));
  EXPECT_TRUE(box.ConstrainClosed(0, 0.0, v + ulp));  // reaches the next float
  EXPECT_EQ(box.Get(0).hi, static_cast<double>(std::nextafter(v, 1.0f)));
}

TEST(BoxTest, ConstrainClosedHandlesInfiniteAndOutOfRangeBounds) {
  constexpr double kFloatMax = std::numeric_limits<float>::max();
  Box box(3);
  EXPECT_TRUE(box.ConstrainClosed(0, -kInf, kInf));
  EXPECT_EQ(box.Get(0).lo, -kInf);
  EXPECT_EQ(box.Get(0).hi, kInf);
  // Finite bounds beyond the float range snap to ±FLT_MAX.
  EXPECT_TRUE(box.ConstrainClosed(1, -1e300, 1e300));
  EXPECT_TRUE(box.Get(1).Contains(-kFloatMax));
  EXPECT_TRUE(box.Get(1).Contains(kFloatMax));
  EXPECT_FALSE(box.Get(1).Contains(kInf));
  // No float lies in (FLT_MAX, 1e300].
  EXPECT_FALSE(box.ConstrainClosed(2, 2 * kFloatMax, 1e300));
}

TEST(BoxTest, CompatibleWithDoesNotMutate) {
  Box box(1);
  EXPECT_TRUE(box.Constrain(0, 0.0, 0.5));
  EXPECT_TRUE(box.CompatibleWith(0, 0.2, 0.9));
  EXPECT_FALSE(box.CompatibleWith(0, 0.6, 0.9));
  EXPECT_DOUBLE_EQ(box.Get(0).hi, 0.5);
}

TEST(BoxWitnessTest, WitnessLiesInsideEveryInterval) {
  Box box(3);
  EXPECT_TRUE(box.ConstrainClosed(0, 0.0, 1.0));
  EXPECT_TRUE(box.ConstrainClosed(1, 0.0, 1.0));
  EXPECT_TRUE(box.ConstrainClosed(2, 0.0, 1.0));
  EXPECT_TRUE(box.Constrain(0, 0.25, 0.75));
  EXPECT_TRUE(box.Constrain(2, 0.9, 2.0));
  auto witness = box.Witness({});
  ASSERT_EQ(witness.size(), 3u);
  for (int f = 0; f < 3; ++f) {
    EXPECT_TRUE(box.Get(f).Contains(witness[static_cast<size_t>(f)]))
        << "feature " << f;
  }
}

TEST(BoxWitnessTest, AnchorIsKeptWhenFeasible) {
  Box box(2);
  EXPECT_TRUE(box.ConstrainClosed(0, 0.0, 1.0));
  EXPECT_TRUE(box.ConstrainClosed(1, 0.0, 1.0));
  std::vector<float> anchor{0.33f, 0.77f};
  auto witness = box.Witness(anchor);
  EXPECT_FLOAT_EQ(witness[0], 0.33f);
  EXPECT_FLOAT_EQ(witness[1], 0.77f);
}

TEST(BoxWitnessTest, AnchorIsClampedWhenOutside) {
  Box box(1);
  EXPECT_TRUE(box.ConstrainClosed(0, 0.0, 1.0));
  EXPECT_TRUE(box.Constrain(0, 0.4, 0.6));
  std::vector<float> anchor{0.9f};
  auto witness = box.Witness(anchor);
  EXPECT_TRUE(box.Get(0).Contains(witness[0]));
  EXPECT_LE(witness[0], 0.6f);
}

/// Property sweep: witnesses are valid for arbitrary nested constraints.
class BoxWitnessSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoxWitnessSweep, RandomConstraintChainsKeepWitnessInside) {
  Rng rng(GetParam());
  Box box(4);
  for (int f = 0; f < 4; ++f) ASSERT_TRUE(box.ConstrainClosed(f, 0.0, 1.0));
  for (int step = 0; step < 30; ++step) {
    const int f = static_cast<int>(rng.UniformInt(4));
    const double a = rng.UniformReal();
    const double b = a + rng.UniformReal() * (1.0 - a);
    box.Constrain(f, a, b);  // may fail; box must stay consistent
    auto witness = box.Witness({});
    for (int g = 0; g < 4; ++g) {
      EXPECT_TRUE(box.Get(g).Contains(witness[static_cast<size_t>(g)]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoxWitnessSweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace treewm::smt
