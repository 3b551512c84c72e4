// Analytic derivation of the REALM error-reduction factors s_ij (paper §III-B).
//
// Mitchell's approximation underestimates the product by a relative error
// (Eq. 5) that depends only on the fractional parts (x, y) of the operands'
// log values.  REALM partitions the unit square of (x, y) into M×M equispaced
// segments and picks, per segment, the factor s_ij that zeroes the *average
// relative error* over the segment (Eq. 8):
//
//   s_ij = - ∫∫ E~rel dx dy  /  ∫∫ 1/((1+x)(1+y)) dx dy        (Eq. 11)
//
// Both integrals have closed forms.  Substituting u = 1+x, v = 1+y maps the
// integrand onto rational kernels 1, 1/u, 1/v, 1/(uv) over [1,2]²; the only
// non-elementary piece appears on segments straddling the x+y = 1 kink
// (u+v = 3), where ∫ ln(3-u)/u du contributes a real dilogarithm.  The
// paper's authors computed these with the MATLAB Symbolic Toolbox; this
// module is the exact from-scratch equivalent, cross-validated against
// adaptive quadrature by the test suite.

#pragma once

#include <vector>

namespace realm::core {

/// One segment of the (x, y) unit square, x0 <= x < x1, y0 <= y < y1,
/// all bounds within [0, 1].
struct Segment {
  double x0, x1, y0, y1;
};

/// Mitchell's relative error surface E~rel(x, y) of Eq. 5 — continuous, with
/// a derivative kink along x+y = 1; always <= 0 (Mitchell never
/// overestimates), minimum -1/9 at x = y = 1/2.
[[nodiscard]] double mitchell_relative_error(double x, double y) noexcept;

/// Closed-form evaluation of Eq. 11 over an arbitrary axis-aligned segment.
/// Handles segments entirely inside either branch of Eq. 5 as well as
/// segments crossed by x+y = 1.
[[nodiscard]] double segment_factor_closed_form(const Segment& s);

/// Numerical evaluation of Eq. 11 by adaptive quadrature — used to
/// cross-check the closed form (they agree to ~1e-10).
[[nodiscard]] double segment_factor_quadrature(const Segment& s, double tol = 1e-11);

/// The full M×M table of factors, row-major (s[i*M + j], i indexing x).
/// These are the values the original authors publish for M = {4, 8, 16}.
[[nodiscard]] std::vector<double> segment_factor_table(int m);

/// MBM's single error-correction constant [4]: the average of Mitchell's
/// *absolute* error over a whole power-of-two-interval, normalized by
/// 2^(ka+kb).  Analytically this is exactly 1/12 (the average of xy over
/// x+y<1 plus (1-x)(1-y) over x+y>=1).
[[nodiscard]] constexpr double mbm_correction() noexcept { return 1.0 / 12.0; }

}  // namespace realm::core
