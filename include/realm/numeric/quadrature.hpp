// Adaptive numerical integration, 1-D and 2-D.
//
// Used to cross-validate the closed-form segment-factor integrals of
// src/core/segment_factors.cpp against an independent numerical
// evaluation.

#pragma once

#include <functional>

namespace realm::num {

/// Scalar integrand f(x).
using Fn1 = std::function<double(double)>;
/// Scalar integrand f(x, y).
using Fn2 = std::function<double(double, double)>;

/// Adaptive Simpson integration of f over [a, b] to absolute tolerance tol.
/// Handles integrands with derivative kinks (the REALM error surface has one
/// along x+y=1) by recursive bisection; depth is bounded at 50.
[[nodiscard]] double integrate(const Fn1& f, double a, double b, double tol = 1e-12);

/// Adaptive 2-D integration of f over the rectangle [ax,bx]×[ay,by] as nested
/// 1-D adaptive Simpson passes.  tol is the absolute tolerance of the result.
[[nodiscard]] double integrate2d(const Fn2& f, double ax, double bx, double ay,
                                 double by, double tol = 1e-10);

}  // namespace realm::num
