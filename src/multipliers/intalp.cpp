#include "realm/multipliers/intalp.hpp"

#include <array>
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
// fraction-sum MSB), plus the level-2 residual plane of the (x, y) MSB
// quadrant — all-zero planes at level 1.  The quadrant is the operand's
// segment; it flips at the interval midpoint, so the range kernel splits
// there.  The significand stays positive and below 4 · 2^w, and never
// carries into the exponent.
struct IntAlpMultiplier::Policy {
  static constexpr dp::Shape kShape = dp::Shape::kLog;
  std::uint64_t w, f;
  std::int64_t ax[4]{}, ay[4]{}, c1[4]{};  // c1 = c · 2^w

  explicit Policy(const IntAlpMultiplier& m)
      : w{static_cast<std::uint64_t>(m.n_ - 1)}, f{w} {
    for (std::size_t q = 0; q < 4; ++q) {
      const Plane& pl = m.quadrant_planes_[q];
      ax[q] = pl.ax;
      ay[q] = pl.ay;
      c1[q] = pl.c * (std::int64_t{1} << w);
    }
  }

  [[nodiscard]] dp::Operand decode(std::uint64_t v, std::uint64_t k) const {
    const std::uint64_t x = dp::log_fraction(v, k, w, 0, 0);
    return {k, x, (x >> (w - 1)) & 1u};
  }
  [[nodiscard]] dp::Term combine(const dp::Operand& a, const dp::Operand& b) const {
    const auto x = static_cast<std::int64_t>(a.frac);
    const auto y = static_cast<std::int64_t>(b.frac);
    const std::int64_t one = std::int64_t{1} << w;
    const std::int64_t s = x + y;
    std::int64_t p = (s < one) ? (s >> 2) : ((3 * s - 2 * one) >> 2);
    const std::uint64_t q = (a.seg << 1) | b.seg;
    p += (ax[q] * x + ay[q] * y + c1[q]) >> kCoeffBits;
    return {static_cast<std::uint64_t>(one + s + p), 0};
  }
  [[nodiscard]] static std::uint64_t piece_last(std::uint64_t b, std::uint64_t kb,
                                                std::uint64_t last) {
    return dp::half_last(b, kb, last);
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

REALM_DATAPATH_ENTRY_POINTS(IntAlpMultiplier)

std::string IntAlpMultiplier::name() const {
  return "IntALP (L=" + std::to_string(level_) + ")";
}

}  // namespace realm::mult
