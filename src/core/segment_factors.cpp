#include "realm/core/segment_factors.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "realm/numeric/dilog.hpp"
#include "realm/numeric/quadrature.hpp"

namespace realm::core {

double mitchell_relative_error(double x, double y) noexcept {
  const double denom = (1.0 + x) * (1.0 + y);
  if (x + y < 1.0) return (1.0 + x + y) / denom - 1.0;
  return 2.0 * (x + y) / denom - 1.0;
}

namespace {

// All closed forms below work in u = 1+x, v = 1+y over [u0,u1]×[v0,v1] ⊂
// [1,2]².  Mitchell's error surface becomes
//   region L (u+v < 3):  h1 - 1  with  h1 = 1/u + 1/v - 1/(uv)
//   region U (u+v >= 3): h2 - 1  with  h2 = 2/u + 2/v - 4/(uv)
// so every integral reduces to the four kernels {1, 1/u, 1/v, 1/(uv)}
// over L ∩ rect and U ∩ rect.

struct Kernels {
  double one;  // ∫∫ 1
  double iu;   // ∫∫ 1/u
  double iv;   // ∫∫ 1/v
  double iuv;  // ∫∫ 1/(uv)
};

// Kernels over the full rectangle.
Kernels rect_kernels(double u0, double u1, double v0, double v1) {
  const double lu = std::log(u1 / u0);
  const double lv = std::log(v1 / v0);
  return {(u1 - u0) * (v1 - v0), (v1 - v0) * lu, (u1 - u0) * lv, lu * lv};
}

// Kernels over a "full column" band: u ∈ [a,b], v ∈ [v0,v1].
Kernels column_kernels(double a, double b, double v0, double v1) {
  if (b <= a) return {0, 0, 0, 0};
  return rect_kernels(a, b, v0, v1);
}

// Kernels over the band u ∈ [a,b] where the column is cut by the line
// u + v = 3:  v ∈ [v0, 3-u].  Requires v0 <= 3-u <= v1 on [a,b].
Kernels triangle_kernels(double a, double b, double v0) {
  if (b <= a) return {0, 0, 0, 0};
  const double lba = std::log(b / a);
  Kernels k{};
  // ∫ (3-u-v0) du
  k.one = (3.0 - v0) * (b - a) - 0.5 * (b * b - a * a);
  // ∫ (3-u-v0)/u du
  k.iu = (3.0 - v0) * lba - (b - a);
  // ∫ (ln(3-u) - ln v0) du ; antiderivative of ln(3-u) is -(3-u)ln(3-u) - u
  const auto lnint = [](double u) { return -(3.0 - u) * std::log(3.0 - u) - u; };
  k.iv = (lnint(b) - lnint(a)) - std::log(v0) * (b - a);
  // ∫ (ln(3-u) - ln v0)/u du ; ∫ ln(3-u)/u du = ln3·ln u - Li2(u/3)
  k.iuv = std::log(3.0) * lba - num::dilog(b / 3.0) + num::dilog(a / 3.0) -
          std::log(v0) * lba;
  return k;
}

Kernels operator+(const Kernels& l, const Kernels& r) {
  return {l.one + r.one, l.iu + r.iu, l.iv + r.iv, l.iuv + r.iuv};
}
Kernels operator-(const Kernels& l, const Kernels& r) {
  return {l.one - r.one, l.iu - r.iu, l.iv - r.iv, l.iuv - r.iuv};
}

void validate(const Segment& s) {
  if (!(s.x0 >= 0.0 && s.x0 < s.x1 && s.x1 <= 1.0 && s.y0 >= 0.0 &&
        s.y0 < s.y1 && s.y1 <= 1.0)) {
    throw std::invalid_argument("segment bounds must satisfy 0<=lo<hi<=1");
  }
}

}  // namespace

double segment_factor_closed_form(const Segment& s) {
  validate(s);
  const double u0 = 1.0 + s.x0, u1 = 1.0 + s.x1;
  const double v0 = 1.0 + s.y0, v1 = 1.0 + s.y1;

  // Kernels over L = rect ∩ {u+v < 3}.  The column height switches from
  // full (v1) to the diagonal (3-u) to empty (v0) at uA = 3-v1, uB = 3-v0.
  const double uA = std::clamp(3.0 - v1, u0, u1);
  const double uB = std::clamp(3.0 - v0, u0, u1);
  const Kernels lower = column_kernels(u0, uA, v0, v1) + triangle_kernels(uA, uB, v0);
  const Kernels rect = rect_kernels(u0, u1, v0, v1);
  const Kernels upper = rect - lower;

  // Numerator of Eq. 11: ∫∫ E~rel = ∫∫_L (h1 - 1) + ∫∫_U (h2 - 1).
  const double num = (lower.iu + lower.iv - lower.iuv - lower.one) +
                     (2.0 * upper.iu + 2.0 * upper.iv - 4.0 * upper.iuv - upper.one);
  const double den = rect.iuv;
  return -num / den;
}

double segment_factor_quadrature(const Segment& s, double tol) {
  validate(s);
  const double num = num::integrate2d(
      [](double x, double y) { return mitchell_relative_error(x, y); }, s.x0,
      s.x1, s.y0, s.y1, tol);
  const double den = num::integrate2d(
      [](double x, double y) { return 1.0 / ((1.0 + x) * (1.0 + y)); }, s.x0,
      s.x1, s.y0, s.y1, tol);
  return -num / den;
}

std::vector<double> segment_factor_table(int m) {
  if (m < 1) throw std::invalid_argument("M must be >= 1");
  std::vector<double> table(static_cast<std::size_t>(m) * static_cast<std::size_t>(m));
  const double w = 1.0 / m;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      const Segment seg{i * w, (i + 1) * w, j * w, (j + 1) * w};
      table[static_cast<std::size_t>(i * m + j)] = segment_factor_closed_form(seg);
    }
  }
  return table;
}

}  // namespace realm::core
