// Bit-accurate behavioral model of the REALM datapath (paper Fig. 3).
//
// The model reproduces the hardware bit-for-bit rather than evaluating the
// math in floating point:
//
//   * leading-one detectors give the characteristics k_a, k_b;
//   * barrel shifters align the remaining bits into (N-1)-bit fractions;
//   * t LSBs are truncated and the new LSB is forced to 1 (the rounding
//     trick of DRUM/MBM; effectively t+1 shifter output bits disappear);
//   * the fractions are added; the carry c_of selects s_ij vs s_ij >> 1;
//   * the quantized error-reduction factor from the LUT is added to the
//     fraction, carries propagating into the characteristic sum exactly as
//     in the appended-word adder of Fig. 3;
//   * a final barrel shift applies 2^(k_a+k_b+carries); when the shift is
//     smaller than the fraction width, low bits fall off — the paper's
//     "special case 2" that shapes the peak error for small products.
//
// Special case 1 (results wider than 2N bits when a, b are near 2^N - 1 and
// the error-reduction factor pushes the product past 2^2N) is handled by
// producing the full (2N+1)-bit value; `multiply_saturated` clamps to 2N
// bits for drop-in replacement of an exact 2N-bit multiplier.

#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "realm/core/lut.hpp"
#include "realm/multiplier.hpp"

namespace realm::core {

struct RealmConfig {
  int n = 16;  ///< operand width N (2..31)
  int m = 16;  ///< segments per power-of-two-interval, power of two in [2, kMaxLutM]
  int t = 0;   ///< truncated fraction LSBs (0 .. N-2-log2(M))
  int q = 6;   ///< LUT quantization bits (3 .. kMaxLutQ)

  /// Fraction width actually carried by the datapath: N-1-t bits.
  [[nodiscard]] int fraction_bits() const noexcept { return n - 1 - t; }

  /// LUT select lines per operand: log2(M) for the power-of-two M a table
  /// accepts, known before the table is derived.
  [[nodiscard]] int select_bits() const noexcept {
    return static_cast<int>(std::bit_width(static_cast<unsigned>(m))) - 1;
  }
};

class RealmMultiplier final : public Multiplier {
 public:
  /// Builds the multiplier, deriving and quantizing the LUT.  Throws
  /// std::invalid_argument for configurations the hardware cannot realize
  /// (e.g. fraction too narrow to address the LUT).
  explicit RealmMultiplier(RealmConfig cfg);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;

  /// Batch and range kernels generated from the datapath policy
  /// (src/multipliers/datapath.hpp); bit-identical to multiply().  The range
  /// kernel decodes the fixed operand (leading one, truncated log fraction,
  /// LUT segment row) once and splits ascending columns at the powers of two
  /// and the LUT column boundaries, so k_b and the LUT entry are constants
  /// and the final barrel shift is two constant shift pairs.
  void multiply_batch(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* out, std::size_t n) const override;
  void multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,
                          std::uint64_t* out, std::size_t n) const override;

  /// Product clamped to the usual 2N-bit output bus.
  [[nodiscard]] std::uint64_t multiply_saturated(std::uint64_t a, std::uint64_t b) const;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int width() const override { return cfg_.n; }

  [[nodiscard]] const RealmConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const SegmentLut& lut() const noexcept { return *lut_; }

  /// Width of the widest possible product (2N+1, see special case 1).
  [[nodiscard]] int product_bits() const noexcept { return 2 * cfg_.n + 1; }

 private:
  struct Policy;
  RealmConfig cfg_;
  std::shared_ptr<const SegmentLut> lut_;  // shared: tables are config-wide constants

  // Datapath view of the LUT: 64-bit entries pre-aligned to the f-bit
  // fraction for the c_of = 0 case (s_ij << 1, then the |f-(q+1)| alignment
  // shift).  The c_of = 1 value is exactly entry >> 1 in both the widening
  // and narrowing case, so the LUT step collapses to one load and one
  // variable shift — and 64-bit entries let the loops vectorize.
  std::vector<std::uint64_t> batch_lut_;
};

}  // namespace realm::core
