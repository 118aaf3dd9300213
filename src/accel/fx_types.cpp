#include "accel/fx_types.hpp"

#include <cstdint>
#include <stdexcept>

namespace mann::accel {

FxMatrix::FxMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols) {}

FxMatrix quantize(const numeric::Matrix& m) {
  FxMatrix out(m.rows(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out(r, c) = Fx::from_float(m(r, c));
    }
  }
  return out;
}

numeric::Matrix dequantize(const FxMatrix& m) {
  numeric::Matrix out(m.rows(), m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      out(r, c) = m(r, c).to_float();
    }
  }
  return out;
}

Fx fx_dot(std::span<const Fx> a, std::span<const Fx> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("fx_dot: length mismatch");
  }
  // Wide-accumulator fast path. Each product is rounded exactly like
  // Fx::operator* (half away from zero: round the magnitude, restore the
  // sign), branch-free in int64. When the rounded magnitudes sum to at
  // most kRawMax, no product and no partial sum of the sequential
  // saturating loop can leave the Q16.16 range, so the plain signed sum
  // equals it bit for bit. A rounded product is below 2^46, so the
  // magnitude sum cannot overflow int64 under kFastMaxLength terms.
  constexpr std::size_t kFastMaxLength = std::size_t{1} << 16;
  constexpr std::int64_t kBias = std::int64_t{1} << (Fx::kFracBits - 1);
  if (a.size() <= kFastMaxLength) {
    std::int64_t sum = 0;
    std::int64_t magnitude = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::int64_t prod = std::int64_t{a[i].raw()} * b[i].raw();
      const std::int64_t sign = prod >> 63;  // 0 or -1
      const std::int64_t rounded =
          (((prod ^ sign) - sign) + kBias) >> Fx::kFracBits;
      sum += (rounded ^ sign) - sign;
      magnitude += rounded;
    }
    if (magnitude <= Fx::kRawMax) {
      return Fx::from_raw(static_cast<Fx::raw_type>(sum));
    }
  }
  // Some term or partial sum may saturate: replay the datapath order.
  Fx acc;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += a[i] * b[i];
  }
  return acc;
}

void fx_axpy(Fx s, std::span<const Fx> x, std::span<Fx> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("fx_axpy: length mismatch");
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += s * x[i];
  }
}

void fx_add(std::span<const Fx> x, std::span<Fx> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("fx_add: length mismatch");
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] += x[i];
  }
}

void fx_clear(std::span<Fx> v) noexcept {
  for (Fx& e : v) {
    e = Fx{};
  }
}

}  // namespace mann::accel
