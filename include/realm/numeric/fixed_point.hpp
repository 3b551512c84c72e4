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
// The signed product exists twice, once per role:
//   * num::signed_mul — one product per call through a UMulFn; the scalar
//     reference that the JPEG reference codec is written against and that
//     build_signed_circuit's netlist is checked against.
//   * num::signed_row_batch — the engine of the approximate dequantizer:
//     one fixed operand times a span, lowered onto a Multiplier's
//     devirtualized multiply_row_batch kernel.  Bit-identical to a
//     signed_mul loop by construction: same magnitude decomposition, same
//     unsigned products (the Multiplier batch contract), same sign
//     re-application.

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>

namespace realm {
class Multiplier;
}  // namespace realm

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

/// Fixed-operand signed row product: out[i] = signed_mul(a_fixed, b[i]) for
/// i in [0, n), lowered onto mul.multiply_row_batch so the fixed operand's
/// data-dependent work (LOD, log fraction, segment row) is hoisted out of
/// the loop once.  This is the shape of the approximate dequantizer: one
/// quantizer constant times a lane of levels.  (The DCT panels read their
/// products from a jpeg::DctProducts table instead.)  `out` must not
/// alias `b`.
void signed_row_batch(std::int64_t a_fixed, const std::int64_t* b, std::int64_t* out,
                      std::size_t n, const Multiplier& mul);

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
