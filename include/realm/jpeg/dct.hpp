// Fixed-point 8×8 DCT-II / IDCT with a pluggable integer multiplier.
//
// The paper implements JPEG "in 16-bit fixed-point arithmetic, using
// accurate and approximate multipliers" (§IV-D).  We realize the 2-D DCT as
// two matrix passes F = C·X·Cᵀ with the cosine coefficients quantized to
// Q12 (so coefficient magnitudes < 2^12 and pixel-domain operands < 2^11 —
// every product the datapath issues fits the 16-bit multipliers under test).
// Sign handling follows the unsigned-multiplier sign-magnitude scheme of
// num::signed_mul.
//
// The codec runs the panel engine (fdct_panel / idct_panel): W blocks per
// call.  Each 1-D pass has a *fixed* coefficient per (row u, tap k), and a
// product depends only on (|c|, |x|), so per tap k the engine splits the
// W·8-wide input lane into sign/magnitude form once and issues one
// multiply_row_batch per *distinct* |c| among the tap's eight outputs,
// landing on the multiplier's row-hoisted kernels; each output then adds
// its magnitude's products with its own sign.  The reuse plan is derived
// once per orientation from dct_matrix_q12(): a full 32-block panel issues
// 112 row batches forward and 44 inverse (rather than 64 per pass).
//
// fdct8x8 / idct8x8 — one block per call, one virtual multiply per product
// through a UMulFn — are the scalar oracle behind the codec's *_reference
// paths.  The panel engine is bit-identical to them: same products in the
// same per-output accumulation order (k ascending), same rescale and
// saturation.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "realm/numeric/fixed_point.hpp"

namespace realm {
class Multiplier;
}  // namespace realm

namespace realm::jpeg {

/// Fraction bits of the DCT coefficient matrix.
inline constexpr int kDctCoeffBits = 12;

/// Forward 2-D DCT of a level-shifted 8×8 block (inputs in [-128, 127]),
/// producing coefficients in natural (pre-quantization) scale.
/// Every multiplication goes through `umul`.  Scalar oracle.
void fdct8x8(const std::array<std::int16_t, 64>& block, std::array<std::int16_t, 64>& out,
             const num::UMulFn& umul);

/// Inverse 2-D DCT; output is level-shifted pixel domain (clamp to
/// [-128, 127] is the caller's job when reconstructing).  Scalar oracle.
void idct8x8(const std::array<std::int16_t, 64>& coeffs,
             std::array<std::int16_t, 64>& out, const num::UMulFn& umul);

/// Forward 2-D DCT of `n_blocks` consecutive row-major 8×8 blocks
/// (`blocks[b*64 + y*8 + x]`), batched through mul.multiply_row_batch.
/// Bit-identical to n_blocks fdct8x8 calls with umul = mul.multiply.
/// `out` may not alias `blocks`.
void fdct_panel(const std::int16_t* blocks, std::int16_t* out, std::size_t n_blocks,
                const Multiplier& mul);

/// Inverse counterpart of fdct_panel; bit-identical to idct8x8 per block.
void idct_panel(const std::int16_t* coeffs, std::int16_t* out, std::size_t n_blocks,
                const Multiplier& mul);

/// The Q12 coefficient matrix row-major (c[u][k] = s(u)·cos((2k+1)uπ/16)),
/// exposed for tests.
[[nodiscard]] const std::array<std::int16_t, 64>& dct_matrix_q12();

}  // namespace realm::jpeg
