// Minimal signed fixed-point support for the application-level (JPEG)
// evaluation, which the paper runs "in 16-bit fixed-point arithmetic".
//
// Values are plain int32_t raw words interpreted in Q(frac_bits) format; the
// interesting part is that *multiplication* is routed through a pluggable
// unsigned-integer multiplier so approximate designs can be dropped into the
// DCT datapath exactly as the paper does.  Signed handling follows the
// sign-magnitude scheme of DRUM [3] ("it is straightforward to extend any
// unsigned integer multiplier for handling signed numbers"): take magnitudes,
// multiply unsigned, re-apply the XOR of the signs.
//
// num::signed_mul is one product per call through a UMulFn: the scalar
// reference that the JPEG reference codec is written against.  The codec's
// panel engine applies the same scheme inline, over whole panels.

#pragma once

#include <cassert>
#include <cstdint>
#include <functional>

namespace realm::num {

/// Unsigned integer multiplication function: (a, b) -> approximate product.
/// Operands are expected to fit the multiplier's native width (16 bits for
/// every design evaluated in the paper).
using UMulFn = std::function<std::uint64_t(std::uint64_t, std::uint64_t)>;

/// Signed multiply built on an unsigned multiplier via sign-magnitude.
///
/// Precondition (the magnitude domain): both operands must have a
/// representable magnitude, i.e. neither may be INT64_MIN — |INT64_MIN|
/// overflows int64_t, so its "magnitude" would wrap to itself and the
/// unsigned multiplier would see a garbage 2^63 operand.  Debug builds
/// assert; release builds treat it as the usual precondition violation
/// (values anywhere near the 16-bit application datapath can never hit it).
[[nodiscard]] std::int64_t signed_mul(std::int64_t a, std::int64_t b, const UMulFn& umul);

/// Saturate to a signed n-bit range [-2^(n-1), 2^(n-1)-1].  Inline: the
/// codec datapaths clamp every output through it.
[[nodiscard]] inline std::int32_t sat_signed(std::int64_t v, int n) {
  assert(n >= 2 && n <= 32);
  const std::int64_t hi = (std::int64_t{1} << (n - 1)) - 1;
  const std::int64_t lo = -(std::int64_t{1} << (n - 1));
  if (v > hi) return static_cast<std::int32_t>(hi);
  if (v < lo) return static_cast<std::int32_t>(lo);
  return static_cast<std::int32_t>(v);
}

}  // namespace realm::num
