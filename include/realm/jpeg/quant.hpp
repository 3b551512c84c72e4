// JPEG quantization: the standard (Annex K) luminance table scaled by the
// libjpeg quality convention; quality 50 uses the table verbatim, matching
// the paper's setup.
//
// Quantization divides by the table entry (exact integer division with
// rounding — a constant divider in hardware); *de*quantization multiplies by
// the entry exactly — a constant (shift-add) multiplier in hardware, not the
// design under test.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>


namespace realm::jpeg {

/// Standard JPEG luminance quantization matrix (zigzag-free, row-major).
[[nodiscard]] const std::array<std::uint16_t, 64>& base_luminance_table();

/// Quality-scaled table per the libjpeg convention (quality in [1, 100]).
[[nodiscard]] std::array<std::uint16_t, 64> scaled_table(int quality);

/// Divide-with-rounding quantizer.
[[nodiscard]] std::int16_t quantize(std::int32_t coeff, std::uint16_t q) noexcept;

/// Quantize `n_blocks` consecutive 64-coefficient blocks, bit-identical to
/// per-coefficient quantize().  The division is replaced by a per-position
/// fixed-point reciprocal hoisted once per call: with n = |coeff| + q/2 <
/// 2^16 and q <= 255, (n * ceil(2^24 / q)) >> 24 equals n / q exactly
/// (the error term n·(q·ceil(2^24/q) - 2^24) < n·q < 2^24 cannot carry
/// into the quotient).  `levels` may not alias `coeffs`.
void quantize_panel(const std::int16_t* coeffs,
                    const std::array<std::uint16_t, 64>& qtable, std::int16_t* levels,
                    std::size_t n_blocks) noexcept;

/// Exact dequantizer: level · q saturated to 16 signed bits, the
/// coefficient width the IDCT takes.
[[nodiscard]] std::int16_t dequantize(std::int16_t level, std::uint16_t q) noexcept;

/// Dequantize `n_blocks` consecutive 64-level blocks, bit-identical to
/// per-level dequantize().  `out` may not alias `levels`.
void dequantize_panel(const std::int16_t* levels,
                      const std::array<std::uint16_t, 64>& qtable, std::int16_t* out,
                      std::size_t n_blocks) noexcept;

/// Zigzag scan order: zigzag_order()[i] is the row-major index of the i-th
/// zigzag position.
[[nodiscard]] const std::array<int, 64>& zigzag_order();

}  // namespace realm::jpeg
