// Fixed-point 8×8 DCT-II / IDCT with a pluggable integer multiplier.
//
// The paper implements JPEG "in 16-bit fixed-point arithmetic, using
// accurate and approximate multipliers" (§IV-D).  We realize the 2-D DCT as
// two matrix passes F = C·X·Cᵀ with the cosine coefficients quantized to
// Q12 (so coefficient magnitudes < 2^12 and every pass input is a 16-bit
// signed value, |x| <= 2^15 — every product the datapath issues fits the
// 16-bit multipliers under test).  Sign handling follows the
// unsigned-multiplier sign-magnitude scheme of num::signed_mul.
//
// The codec runs the panel engine (fdct_panel / idct_panel): up to 32
// blocks per panel.  Each 1-D pass has a *fixed* coefficient per (row u,
// tap k), and a product depends only on (|c|, |x|).  The Q12 matrix holds
// only 7 distinct |c|, and |x| takes 2^15 + 1 values, so every product the
// transforms can issue is an entry of one 7 × (2^15 + 1) table per design:
// DctProducts, filled by one multiply_row_range call per magnitude.  The
// codec builds one table per encode() / decode() call and every panel reads
// it: per tap k the pass splits the W·8-wide input lane into sign/magnitude
// form once, looks up the tap's distinct magnitudes' products, and each
// output adds its magnitude's products with its own sign.
//
// fdct8x8 / idct8x8 — one block per call, one virtual multiply per product
// through a UMulFn — are the scalar oracle behind the codec's *_reference
// paths.  The panel engine is bit-identical to them: the table holds the
// products scalar multiply() returns (the row-range contract), summed per
// output in the same order (k ascending), with the same rescale and
// saturation.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "realm/numeric/fixed_point.hpp"

namespace realm {
class Multiplier;
}  // namespace realm

namespace realm::jpeg {

/// Fraction bits of the DCT coefficient matrix.
inline constexpr int kDctCoeffBits = 12;

/// Every product the panel transforms can issue for one design:
/// row(r)[x] = mul.multiply(magnitude(r), x) for the 7 distinct |c| of
/// dct_matrix_q12() (ascending) and every 16-bit magnitude x in [0, 2^15].
/// Each row is one mul.multiply_row_range call; the table is 1.8 MB.
/// Read-only once built, so one table serves any number of threads.
class DctProducts {
 public:
  static constexpr std::size_t kRows = 7;
  static constexpr std::size_t kColumns = (std::size_t{1} << 15) + 1;

  /// Throws std::invalid_argument when mul.width() < 16: |x| reaches 2^15.
  explicit DctProducts(const Multiplier& mul);

  [[nodiscard]] const std::uint64_t* row(std::size_t r) const {
    return products_.get() + r * kColumns;
  }

  /// The coefficient magnitude of row r.
  [[nodiscard]] static std::uint64_t magnitude(std::size_t r);

 private:
  std::unique_ptr<std::uint64_t[]> products_;
};

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
/// (`blocks[b*64 + y*8 + x]`), every product read from `products`.
/// Bit-identical to n_blocks fdct8x8 calls with umul = mul.multiply for the
/// design the table was built from.  `out` may not alias `blocks`.
void fdct_panel(const std::int16_t* blocks, std::int16_t* out, std::size_t n_blocks,
                const DctProducts& products);

/// Inverse counterpart of fdct_panel; bit-identical to idct8x8 per block.
void idct_panel(const std::int16_t* coeffs, std::int16_t* out, std::size_t n_blocks,
                const DctProducts& products);

/// The Q12 coefficient matrix row-major (c[u][k] = s(u)·cos((2k+1)uπ/16)),
/// exposed for tests.
[[nodiscard]] const std::array<std::int16_t, 64>& dct_matrix_q12();

}  // namespace realm::jpeg
