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
// The codec runs the panel engine (fdct_panel / idct_panel) over its
// shards of blocks.  Each 1-D pass has a *fixed* coefficient per (output u,
// tap k), and a product depends only on (|c|, |x|).  The Q12 matrix holds
// only 7 distinct |c|, so every product a transform issues is an entry of
// one table per design: DctProducts, one 32-byte record of the 7 products
// per magnitude |x|, filled by multiply_row_range calls.  A table covers
// only the magnitudes a transform can read: [0, max(B1, B2)], where B1
// bounds the first pass's inputs (128 for level-shifted pixels, the largest
// dequantized |coefficient| for a decode) and B2 bounds the second pass's,
// derived from the largest product of the first (see DctProducts).  A
// forward transform reads about 500 records, a Table II decode a few
// thousand, out of the 2^15 + 1 a full table holds.  encode() and decode()
// each build one table, roundtrip() one that it extends for the decode
// half, and every panel reads it.  Per (block, column) a pass keeps
// the eight outputs u in one 8-lane accumulator; per tap k it loads the
// record of |x|, permutes it into output order with the tap's fixed slot
// pattern, applies the coefficient-sign ⊕ input-sign mask and adds.  A tap
// whose eight inputs in a block are all zero is skipped: every accumulator
// starts at the sum of the taps' products of x = 0, and a tap that runs adds
// its products minus those.
//
// fdct8x8 / idct8x8 — one block per call, one virtual multiply per product
// through a UMulFn — are the scalar oracle behind the codec's *_reference
// paths.  The panel engine is bit-identical to them: the table holds the
// products scalar multiply() returns (the row-range contract), and the
// integer sums are exact, so the same rescale and saturation give the same
// outputs.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "realm/numeric/fixed_point.hpp"

namespace realm {
class Multiplier;
}  // namespace realm

namespace realm::jpeg {

/// Fraction bits of the DCT coefficient matrix.
inline constexpr int kDctCoeffBits = 12;

/// The products the panel transforms issue for one design, one 32-byte
/// record per 16-bit magnitude x in [0, covered()]:
/// record(x)[r] = mul.multiply(magnitude(r), x) for the 7 distinct |c| of
/// dct_matrix_q12() (ascending), and record(x)[7] = 0.
///
/// A table built for first-pass inputs of magnitude at most B1 covers
/// [0, max(B1, B2)] with B2 = min(2^15, ((8·Pmax + 2^11) >> 12) + 1), where
/// Pmax is the largest entry of records [0, B1]: a first-pass output sums
/// eight signed entries, so its magnitude before the rescale is at most
/// 8·Pmax, and the rescale is monotone and rounds a negative sum at most one
/// step further from zero.  So every record a transform of such inputs reads
/// is covered.  The records live in one heap array of exactly covered() + 1
/// entries, filled 512 magnitudes at a time with mul.multiply_row_range;
/// a read past it is a heap overflow.  Only cover() changes a table, so
/// between calls to it one table serves any number of threads.
class DctProducts {
 public:
  static constexpr std::size_t kRows = 7;
  static constexpr std::size_t kSlots = 8;
  /// The largest 16-bit magnitude, |-32768|.
  static constexpr std::size_t kMaxMagnitude = std::size_t{1} << 15;
  /// The largest entry a record can hold: 8 signed entries then sum exactly
  /// in 32 bits, since 8·(2^28 − 1) < 2^31.
  static constexpr std::uint64_t kMaxEntry = (std::uint64_t{1} << 28) - 1;

  /// The table for transforms whose first-pass inputs have magnitude at
  /// most `input_bound` (clamped to kMaxMagnitude; the default covers every
  /// 16-bit input).  Throws std::invalid_argument when mul.width() < 16
  /// (|x| reaches 2^15) or when any record it fills holds an entry above
  /// kMaxEntry.  `mul` must outlive the table.
  explicit DctProducts(const Multiplier& mul, std::size_t input_bound = kMaxMagnitude);

  /// Extends the table to first-pass inputs of magnitude at most
  /// `input_bound`, filling only the records it does not hold yet; throws
  /// like the constructor.
  void cover(std::size_t input_bound);

  /// The largest magnitude with a record.
  [[nodiscard]] std::size_t covered() const noexcept { return records_.size() - 1; }

  /// The products of one magnitude, one 32-byte vector load.
  struct alignas(32) Record {
    std::uint32_t slot[kSlots];
  };

  /// The record of magnitude x <= covered().
  [[nodiscard]] const std::uint32_t* record(std::size_t x) const {
    return records_[x].slot;
  }

  /// The coefficient magnitude of slot r < kRows.
  [[nodiscard]] static std::uint64_t magnitude(std::size_t r);

 private:
  // Fills the records of magnitudes [records_.size(), last].
  void fill_to(std::size_t last);

  const Multiplier* mul_;
  std::vector<Record> records_;
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
