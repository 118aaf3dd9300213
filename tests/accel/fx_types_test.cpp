#include "accel/fx_types.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "numeric/random.hpp"
#include "numeric/vector_ops.hpp"

namespace mann::accel {
namespace {

TEST(FxMatrix, ShapeAndAccess) {
  FxMatrix m(2, 3);
  EXPECT_EQ(m.rows(), 2U);
  EXPECT_EQ(m.cols(), 3U);
  EXPECT_EQ(m.size(), 6U);
  m(1, 2) = Fx::from_float(1.5F);
  EXPECT_FLOAT_EQ(m(1, 2).to_float(), 1.5F);
}

TEST(FxMatrix, RowSpanAliases) {
  FxMatrix m(2, 2);
  auto row = m.row(1);
  row[0] = Fx::from_float(-2.0F);
  EXPECT_FLOAT_EQ(m(1, 0).to_float(), -2.0F);
}

TEST(Quantize, RoundTripWithinLsb) {
  numeric::Rng rng(3);
  numeric::Matrix m(4, 5);
  for (float& v : m.data()) {
    v = rng.uniform(-2.0F, 2.0F);
  }
  const FxMatrix q = quantize(m);
  const numeric::Matrix back = dequantize(q);
  const float lsb = 1.0F / 65536.0F;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_NEAR(back(r, c), m(r, c), 0.5F * lsb + 1e-7F);
    }
  }
}

TEST(FxDot, MatchesFloatReference) {
  numeric::Rng rng(7);
  std::vector<float> fa(24);
  std::vector<float> fb(24);
  FxVector a(24);
  FxVector b(24);
  for (std::size_t i = 0; i < 24; ++i) {
    fa[i] = rng.uniform(-1.0F, 1.0F);
    fb[i] = rng.uniform(-1.0F, 1.0F);
    a[i] = Fx::from_float(fa[i]);
    b[i] = Fx::from_float(fb[i]);
  }
  const float ref = numeric::dot(fa, fb);
  EXPECT_NEAR(fx_dot(a, b).to_float(), ref, 24.0F * 3.0F / 65536.0F);
}

TEST(FxDot, LengthMismatchThrows) {
  FxVector a(3);
  FxVector b(2);
  EXPECT_THROW((void)fx_dot(a, b), std::invalid_argument);
}

/// The datapath's definition of a dot product: Fx::operator* rounding and
/// saturation on every term, then a saturating sequential accumulate.
Fx reference_dot(std::span<const Fx> a, std::span<const Fx> b) {
  Fx acc;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

/// A raw word drawn from one of several magnitude classes, including the
/// extremes, so random vectors mix in-range and saturating terms.
Fx random_operand(numeric::Rng& rng) {
  switch (rng.index(8)) {
    case 0:
      return Fx::max();
    case 1:
      return Fx::min();
    case 2:
      return Fx::from_raw(static_cast<std::int32_t>(rng()));  // full range
    case 3:
      return Fx::from_raw(static_cast<std::int32_t>(rng.index(1 << 24)) -
                          (1 << 23));
    default:
      return Fx::from_raw(static_cast<std::int32_t>(rng.index(1 << 18)) -
                          (1 << 17));
  }
}

TEST(FxDot, MatchesSequentialSaturatingLoopOnRandomVectors) {
  numeric::Rng rng(20240613);
  for (std::size_t trial = 0; trial < 20000; ++trial) {
    const std::size_t n = rng.index(257);  // lengths 0..256
    // Half the trials stay small-magnitude (the fast path); the rest mix
    // in extremes that force the saturating fallback.
    const bool extremes = trial % 2 == 1;
    FxVector a(n);
    FxVector b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = extremes ? random_operand(rng)
                      : Fx::from_raw(static_cast<std::int32_t>(
                                         rng.index(1 << 18)) - (1 << 17));
      b[i] = extremes ? random_operand(rng)
                      : Fx::from_raw(static_cast<std::int32_t>(
                                         rng.index(1 << 18)) - (1 << 17));
    }
    ASSERT_EQ(fx_dot(a, b), reference_dot(a, b))
        << "trial " << trial << ", length " << n;
  }
}

TEST(FxDot, ExactAtTheSaturationBoundary) {
  const Fx one = Fx::from_raw(Fx::kOne);
  const std::int32_t max = Fx::kRawMax;
  const auto check = [&](std::vector<std::int32_t> raws) {
    FxVector a(raws.size(), one);
    FxVector b;
    for (const std::int32_t r : raws) {
      b.push_back(Fx::from_raw(r));
    }
    EXPECT_EQ(fx_dot(a, b), reference_dot(a, b));
    EXPECT_EQ(fx_dot(b, a), reference_dot(b, a));
    return fx_dot(a, b).raw();
  };
  // Term magnitudes summing to exactly kRawMax: the widest exact case.
  EXPECT_EQ(check({max / 2, max - max / 2}), max);
  EXPECT_EQ(check({-(max / 2), -(max - max / 2)}), -max);
  // One past it: the sum saturates (and reaches kRawMin exactly below).
  EXPECT_EQ(check({max / 2, max - max / 2, 1}), max);
  EXPECT_EQ(check({-(max / 2), -(max - max / 2), -1}), Fx::kRawMin);
  EXPECT_EQ(check({-(max / 2), -(max - max / 2), -2}), Fx::kRawMin);
  // A partial sum saturates and later terms pull it back: the datapath
  // result differs from the exact sum, and fx_dot must keep that.
  EXPECT_EQ(check({max, 5, -10}), max - 10);
  EXPECT_EQ(check({Fx::kRawMin, -5, 10}), Fx::kRawMin + 10);
  // Large magnitudes that cancel without ever saturating.
  EXPECT_EQ(check({1 << 30, -(1 << 30), 1 << 30, -(1 << 30), 7}), 7);
  // Extreme operands: the product itself saturates.
  EXPECT_EQ(fx_dot(FxVector{Fx::min()}, FxVector{Fx::min()}), Fx::max());
  EXPECT_EQ(fx_dot(FxVector{Fx::min()}, FxVector{Fx::max()}), Fx::min());
  EXPECT_EQ(fx_dot(FxVector{}, FxVector{}), Fx{});
}

TEST(FxDot, RoundsHalfAwayFromZeroLikeTheMultiplier) {
  // 1 raw * 2^15 raw = exactly half an LSB after the shift.
  const Fx half_lsb = Fx::from_raw(1 << 15);
  for (const std::int32_t x : {1, -1, 3, -3, 0}) {
    const FxVector a = {Fx::from_raw(x), Fx::from_raw(x)};
    const FxVector b = {half_lsb, Fx::from_raw(-(1 << 15))};
    EXPECT_EQ(fx_dot(a, b), reference_dot(a, b)) << x;
    EXPECT_EQ(fx_dot(a, b), Fx::from_raw(x) * half_lsb +
                                Fx::from_raw(x) * Fx::from_raw(-(1 << 15)));
  }
  EXPECT_EQ(fx_dot(FxVector{Fx::from_raw(1)}, FxVector{half_lsb}).raw(), 1);
  EXPECT_EQ(fx_dot(FxVector{Fx::from_raw(-1)}, FxVector{half_lsb}).raw(), -1);
}

TEST(FxAxpyAndAdd, Basics) {
  FxVector x = {Fx::from_float(1.0F), Fx::from_float(2.0F)};
  FxVector y = {Fx::from_float(10.0F), Fx::from_float(20.0F)};
  fx_axpy(Fx::from_float(0.5F), x, y);
  EXPECT_FLOAT_EQ(y[0].to_float(), 10.5F);
  EXPECT_FLOAT_EQ(y[1].to_float(), 21.0F);
  fx_add(x, y);
  EXPECT_FLOAT_EQ(y[0].to_float(), 11.5F);
  fx_clear(y);
  EXPECT_EQ(y[0], Fx{});
}

TEST(FxAxpy, MismatchThrows) {
  FxVector x(3);
  FxVector y(2);
  EXPECT_THROW(fx_axpy(Fx::from_float(1.0F), x, y), std::invalid_argument);
  EXPECT_THROW(fx_add(x, y), std::invalid_argument);
}

}  // namespace
}  // namespace mann::accel
