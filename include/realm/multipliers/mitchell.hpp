// cALM — Mitchell's classical approximate log-based multiplier [8].
//
// lg(A) is linearly approximated as k_a + x between consecutive powers of
// two (Eq. 1); the two approximate logs are added and the inverse
// approximation applied (Eq. 3).  The relative error is always <= 0 with
// minimum -1/9 ≈ -11.11 % at x = y = 1/2, mean |error| ≈ 3.85 %.

#pragma once

#include "realm/multiplier.hpp"

namespace realm::mult {

class MitchellMultiplier final : public Multiplier {
 public:
  /// n: operand width.  t: optional plain truncation of fraction LSBs
  /// (0 = the classical design; no rounding bit, unlike MBM/REALM).
  explicit MitchellMultiplier(int n = 16, int t = 0);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  /// Batch and range kernels generated from the datapath policy
  /// (src/multipliers/datapath.hpp); bit-identical to multiply().
  void multiply_batch(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* out, std::size_t n) const override;
  void multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,
                          std::uint64_t* out, std::size_t n) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int width() const override { return n_; }

 private:
  struct Policy;
  int n_;
  int t_;
};

}  // namespace realm::mult
