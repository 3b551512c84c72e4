// The quotient of the exhaustive engine's row reduction (eval_engine.cpp).
//
// The reduction turns each pair's error into a relative error, (p − x) / x
// with x = a·b, and on a row tile that division bounds it: one vdivpd per
// eight pairs.  When every divisor is an integer below 2^52 and the CPU has
// x86-64-v4, the row loop takes every other vector's quotient from a
// reciprocal instead, so the divider and the FMA ports work side by side:
//
//   y  = rcp14(d)                       relative error below 2^-14
//   y  = fma(fnma(d, y, 1), y, y)       three Newton steps: 2^-28, then within
//                                       one ulp of 1/d, then RN(1/d)
//   q0 = n·y                            within one ulp of n/d
//   r  = fnma(d, q0, n)                 n − d·q0, exact
//   q  = fma(r, y, q0)                  RN(n/d)
//
// Markstein's theorems (IBM J. Res. Dev. 34(1), 1990) make the last Newton
// step correctly rounded when y is within one ulp of 1/d and the significand
// of d is not all ones, and make q correctly rounded when y = RN(1/d) and
// nothing underflows or overflows.  An integer below 2^52 has at most 52
// significant bits, so its 53-bit significand ends in a zero; with d >= 1
// and |n| < 2^64 no step leaves the normal range.  One input is outside the
// theorems: n = -0 gives +0 where IEEE gives -0.  The reduction's n = p − x
// is never -0, since x − x is +0 when rounding to nearest.  Every FMA is an
// intrinsic: the theorems need the fused rounding, which -ffp-contract does
// not promise.  q therefore equals IEEE n / d bit for bit; the tests check
// it against `/` on structured and seeded random inputs.
//
// Private to the library: eval_engine.cpp and the tests include it.

#pragma once

#include "realm/numeric/simd.hpp"

#ifdef REALM_HAVE_X86_64_V4_CLONE
#include <immintrin.h>
#endif

namespace realm::err::detail {

/// Widest operands whose products a·b are all integers below 2^52:
/// (2^26 − 1)^2 < 2^52.
inline constexpr int kExactRowWidth = 26;

/// The loops a nonzero exhaustive row tile can take: the general blended
/// loop, or the blend-free row loop that takes every other vector's quotient
/// from fma_quotient.
enum class RowLoop { kBlended, kFmaReciprocal };

/// The loop for `width`-bit operands on this CPU.  The row loop needs
/// x86-64-v4 and operands of at most kExactRowWidth bits; everything else
/// keeps the blended loop, which divides.
[[nodiscard]] inline RowLoop row_loop(int width) noexcept {
#ifdef REALM_HAVE_X86_64_V4_CLONE
  if (width <= kExactRowWidth && __builtin_cpu_supports("x86-64-v4")) {
    return RowLoop::kFmaReciprocal;
  }
#else
  (void)width;
#endif
  return RowLoop::kBlended;
}

#ifdef REALM_HAVE_X86_64_V4_CLONE
/// q = RN(n / d) lane by lane, for every d an integer in [1, 2^52) and n != -0.
/// Only code compiled for x86-64-v4 can inline it; call it only on a CPU
/// that has x86-64-v4.
[[gnu::target("arch=x86-64-v4")]] inline void fma_quotient(const __m512d& n,
                                                          const __m512d& d,
                                                          __m512d& q) {
  const __m512d one = _mm512_set1_pd(1.0);
  // The zero-masked form with every lane selected is the plain vrcp14pd;
  // GCC 12's unmasked intrinsic reads an uninitialized pass-through.
  __m512d y = _mm512_maskz_rcp14_pd(0xFF, d);
  for (int step = 0; step < 3; ++step) {
    y = _mm512_fmadd_pd(_mm512_fnmadd_pd(d, y, one), y, y);
  }
  const __m512d q0 = _mm512_mul_pd(n, y);
  const __m512d r = _mm512_fnmadd_pd(d, q0, n);
  q = _mm512_fmadd_pd(r, y, q0);
}
#endif

}  // namespace realm::err::detail
