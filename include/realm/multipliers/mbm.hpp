// MBM — the minimally biased multiplier of Saadat et al. [4].
//
// Mitchell's multiplier plus a *single* error-correction term for the whole
// power-of-two-interval: the average of Mitchell's absolute error over the
// interval, which normalizes to exactly 1/12 of 2^(ka+kb) (see
// realm::core::mbm_correction()).  The constant is quantized to q fraction
// bits and applied inside the antilog exactly like REALM's s_ij (REALM is
// MBM generalized to M×M per-segment factors and a relative-error
// formulation).  Shares REALM's t-LSB truncation knob with the forced-1
// rounding bit.

#pragma once

#include <cstdint>

#include "realm/multiplier.hpp"

namespace realm::mult {

class MbmMultiplier final : public Multiplier {
 public:
  explicit MbmMultiplier(int n = 16, int t = 0, int q = 6);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  /// Batch and range kernels generated from the datapath policy
  /// (src/multipliers/datapath.hpp); bit-identical to multiply().
  void multiply_batch(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* out, std::size_t n) const override;
  void multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,
                          std::uint64_t* out, std::size_t n) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int width() const override { return n_; }

  /// The correction quantized to q fraction bits, in units of 2^-q
  /// (round-to-nearest of 1/12); hw::build_log_multiplier reads it too.
  [[nodiscard]] static std::uint32_t correction_units(int q);

 private:
  struct Policy;
  int n_;
  int t_;
  int q_;
  std::uint32_t corr_units_;
};

}  // namespace realm::mult
