// DRUM — dynamic range unbiased multiplier of Hashemi et al. [3].
//
// Extracts the k-bit fragment starting at each operand's leading one,
// forces the fragment's LSB to 1 (which centers the truncation error and
// removes the bias), multiplies the fragments with an exact k×k multiplier,
// and shifts the product back.  Operands that already fit k bits pass
// through unchanged, so DRUM is exact for small inputs.

#pragma once

#include "realm/multiplier.hpp"

namespace realm::mult {

class DrumMultiplier final : public Multiplier {
 public:
  /// n: operand width; k: fragment width, 3 <= k <= n.
  DrumMultiplier(int n, int k);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  /// Batch and range kernels generated from the datapath policy
  /// (src/multipliers/datapath.hpp); bit-identical to multiply().
  void multiply_batch(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* out, std::size_t n) const override;
  void multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,
                          std::uint64_t* out, std::size_t n) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int width() const override { return n_; }
  [[nodiscard]] int k() const noexcept { return k_; }

 private:
  template <class U>
  struct Policy;
  int n_;
  int k_;
};

}  // namespace realm::mult
