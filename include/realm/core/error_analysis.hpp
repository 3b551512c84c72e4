// Analytic error prediction for REALM configurations.
//
// For operands uniform within a power-of-two-interval, the fractional parts
// (x, y) are uniform on the unit square, so REALM's error statistics are
// integrals of the residual surface
//
//   R(x, y) = E~rel(x, y) + s_ij / ((1+x)(1+y)),   (i, j) = segment of (x, y)
//
// with the *quantized* s_ij of the hardware LUT.  This module evaluates
// bias = ∫∫R, mean = ∫∫|R|, variance and the extreme values by adaptive
// quadrature / dense sampling — an independent derivation of Table I's error
// columns that never executes the bit-level model.  (The prediction is for
// the untruncated datapath; t adds fraction-quantization noise on top, and
// the operand-magnitude distribution adds small weighting effects, both
// visible in the Monte-Carlo columns.)

#pragma once

#include "realm/core/lut.hpp"

namespace realm::core {

struct PredictedErrors {
  double bias_pct = 0.0;
  double mean_pct = 0.0;
  double variance = 0.0;  ///< percent² (Table I units)
  double min_pct = 0.0;
  double max_pct = 0.0;
};

/// Predicts the REALM error metrics for a LUT (M, q) from the residual
/// surface alone.  `grid` controls the extreme-value search density per
/// segment edge.
[[nodiscard]] PredictedErrors predict_realm_errors(const SegmentLut& lut,
                                                   int grid = 64);

/// Same machinery for plain Mitchell (s = 0 everywhere):
/// bias = mean = -3.85 %, min = -11.11 %, max = 0.
[[nodiscard]] PredictedErrors predict_mitchell_errors();

}  // namespace realm::core
