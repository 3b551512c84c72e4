#include "realm/multipliers/intalp.hpp"

#include <array>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "datapath.hpp"
#include "realm/numeric/quadrature.hpp"

namespace realm::mult {
namespace {

// Level-1 plane approximation of xy: tight upper planes per x+y comparator
// side, P1 = (x+y)/4 below the diagonal and (3(x+y) - 2)/4 above it.
double level1_plane(double x, double y) {
  const double s = x + y;
  return s < 1.0 ? 0.25 * s : 0.25 * (3.0 * s - 2.0);
}

// Least-squares plane fit of f over [x0,x1]×[y0,y1] via the 3×3 normal
// equations, solved with Cramer's rule.
std::array<double, 3> fit_plane(const num::Fn2& f, double x0, double x1, double y0,
                                double y1) {
  const auto I = [&](const num::Fn2& g) {
    return num::integrate2d(g, x0, x1, y0, y1, 1e-10);
  };
  const double sxx = I([](double x, double) { return x * x; });
  const double sxy = I([](double x, double y) { return x * y; });
  const double sx = I([](double x, double) { return x; });
  const double syy = I([](double, double y) { return y * y; });
  const double sy = I([](double, double y) { return y; });
  const double s1 = I([](double, double) { return 1.0; });
  const double rx = I([&](double x, double y) { return f(x, y) * x; });
  const double ry = I([&](double x, double y) { return f(x, y) * y; });
  const double r1 = I(f);

  const auto det3 = [](double a, double b, double c, double d, double e, double g,
                       double h, double i, double j) {
    return a * (e * j - g * i) - b * (d * j - g * h) + c * (d * i - e * h);
  };
  const double det = det3(sxx, sxy, sx, sxy, syy, sy, sx, sy, s1);
  const double da = det3(rx, sxy, sx, ry, syy, sy, r1, sy, s1);
  const double db = det3(sxx, rx, sx, sxy, ry, sy, sx, r1, s1);
  const double dc = det3(sxx, sxy, rx, sxy, syy, ry, sx, sy, r1);
  return {da / det, db / det, dc / det};
}

}  // namespace

// C~ = 2^(ka+kb) · (1 + x + y + p) with p the plane approximation of xy in
// Q(w): the level-1 plane per side of the x+y = 1 comparator (the
// fraction-sum MSB).  The significand stays positive and below 4 · 2^w, and
// never carries into the exponent.  The quadrant segment flips at the
// interval midpoint, so the range kernel splits there.
template <class U>
struct IntAlpMultiplier::Policy {
  using Word = U;
  using S = std::make_signed_t<U>;
  static constexpr dp::Shape kShape = dp::Shape::kLog;
  U w, f;

  explicit Policy(const IntAlpMultiplier& m) : w{static_cast<U>(m.n_ - 1)}, f{w} {}

  [[nodiscard]] dp::Operand<U> decode(U v, U k) const {
    const U x = dp::log_fraction<U>(v, k, w, 0, 0);
    return {k, x, static_cast<U>((x >> (w - 1)) & 1u)};
  }
  [[nodiscard]] dp::Term<U> combine(const dp::Operand<U>& a, const dp::Operand<U>& b) const {
    const auto x = static_cast<S>(a.frac);
    const auto y = static_cast<S>(b.frac);
    const S one = S{1} << w;
    const S s = x + y;
    const S p = (s < one) ? (s >> 2) : ((3 * s - 2 * one) >> 2);
    return {static_cast<U>(one + s + p), 0};
  }
  [[nodiscard]] static std::uint64_t piece_last(std::uint64_t b, std::uint64_t kb,
                                                std::uint64_t last) {
    return dp::half_last(b, kb, last);
  }
};

// Level 2: level 1 plus the residual plane of the (x, y) MSB quadrant.  At
// N <= 16 every term fits a 32-bit lane: |ax|, |ay| <= 257 and |c| <= 64
// (residual_planes()), and x, y < 2^15.  The quadrant's coefficients are
// picked by two levels of selects: as a table read in 32-bit lanes GCC
// lowers them to scalar inserts, not a gather.
template <class U>
struct IntAlpMultiplier::PlanePolicy : Policy<U> {
  using S = std::make_signed_t<U>;
  S ax[4]{}, ay[4]{}, c1[4]{};  // c1 = c · 2^w

  explicit PlanePolicy(const IntAlpMultiplier& m) : Policy<U>{m} {
    for (std::size_t q = 0; q < 4; ++q) {
      const Plane& pl = m.quadrant_planes_[q];
      ax[q] = static_cast<S>(pl.ax);
      ay[q] = static_cast<S>(pl.ay);
      c1[q] = static_cast<S>(pl.c * (std::int64_t{1} << this->w));
    }
  }

  [[nodiscard]] static S quadrant(const S (&v)[4], bool qx, bool qy) {
    return qx ? (qy ? v[3] : v[2]) : (qy ? v[1] : v[0]);
  }
  [[nodiscard]] dp::Term<U> combine(const dp::Operand<U>& a, const dp::Operand<U>& b) const {
    const auto x = static_cast<S>(a.frac);
    const auto y = static_cast<S>(b.frac);
    const bool qx = a.seg != 0, qy = b.seg != 0;
    const S p =
        (quadrant(ax, qx, qy) * x + quadrant(ay, qx, qy) * y + quadrant(c1, qx, qy)) >> kCoeffBits;
    const dp::Term<U> t = Policy<U>::combine(a, b);
    return {static_cast<U>(t.value + static_cast<U>(p)), 0};
  }
};

const std::array<IntAlpMultiplier::Plane, 4>& IntAlpMultiplier::residual_planes() {
  // Residual of level 1, fitted per (x, y) MSB quadrant and quantized.  The
  // residual is symmetric in (x, y), so the off-diagonal quadrant reuses the
  // mirrored coefficients — this keeps the quantized design commutative
  // (independent rounding could differ by an LSB).
  static const std::array<Plane, 4> planes = [] {
    const auto residual = [](double x, double y) { return x * y - level1_plane(x, y); };
    const double scale = std::ldexp(1.0, kCoeffBits);
    std::array<Plane, 4> out{};
    for (int qx = 0; qx < 2; ++qx) {
      for (int qy = 0; qy <= qx; ++qy) {
        const auto p = fit_plane(residual, 0.5 * qx, 0.5 * (qx + 1), 0.5 * qy,
                                 0.5 * (qy + 1));
        const Plane plane{static_cast<std::int64_t>(std::lround(p[0] * scale)),
                          static_cast<std::int64_t>(std::lround(p[1] * scale)),
                          static_cast<std::int64_t>(std::lround(p[2] * scale))};
        out[static_cast<std::size_t>(qx * 2 + qy)] = plane;
        out[static_cast<std::size_t>(qy * 2 + qx)] = {plane.ay, plane.ax, plane.c};
      }
    }
    return out;
  }();
  return planes;
}

IntAlpMultiplier::IntAlpMultiplier(int n, int level) : n_{n}, level_{level} {
  if (n < 3 || n > 24) throw std::invalid_argument("IntAlpMultiplier: N in [3, 24]");
  if (level != 1 && level != 2) throw std::invalid_argument("IntAlpMultiplier: level 1 or 2");
  if (level_ == 2) quadrant_planes_ = residual_planes();
}

// multiply() runs the plane term at both levels (level 1's planes are
// zero), so it checks level 1's plane-free kernels as well.
std::uint64_t IntAlpMultiplier::multiply(std::uint64_t a, std::uint64_t b) const {
  assert(num::fits(a, n_) && num::fits(b, n_));
  return dp::multiply(PlanePolicy<std::uint64_t>{*this}, a, b);
}

void IntAlpMultiplier::multiply_batch(const std::uint64_t* a, const std::uint64_t* b,
                                      std::uint64_t* out, std::size_t n) const {
  if (level_ == 1) {
    dp::batch_entry<Policy>(*this, a, b, out, n);
  } else {
    dp::batch_entry<PlanePolicy>(*this, a, b, out, n);
  }
}

void IntAlpMultiplier::multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,
                                          std::uint64_t* out, std::size_t n) const {
  if (level_ == 1) {
    dp::range_entry<Policy>(*this, a_fixed, b0, out, n);
  } else {
    dp::range_entry<PlanePolicy>(*this, a_fixed, b0, out, n);
  }
}

std::string IntAlpMultiplier::name() const {
  return "IntALP (L=" + std::to_string(level_) + ")";
}

}  // namespace realm::mult
