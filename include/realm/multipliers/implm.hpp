// ImpLM — improved logarithmic multiplier of Ansari et al. [10].
//
// Improves Mitchell's log approximation by choosing the power of two
// *nearest* to each operand instead of the highest one below it: for
// A = 2^k(1+x) with x >= 1/2, the operand is re-anchored as A = 2^(k+1)·m
// with mantissa offset f = m - 1 ∈ [-1/4, 0).  The fraction sum can
// therefore be negative, which makes the error double-sided with peak
// exactly ±1/9 (±11.11 %) and near-zero bias — matching the ImpLM "EA"
// (exact adder) row of Table I.

#pragma once

#include "realm/multiplier.hpp"

namespace realm::mult {

class ImplmMultiplier final : public Multiplier {
 public:
  explicit ImplmMultiplier(int n = 16);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  /// Batch and range kernels generated from the datapath policy
  /// (src/multipliers/datapath.hpp); bit-identical to multiply().
  void multiply_batch(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* out, std::size_t n) const override;
  void multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,
                          std::uint64_t* out, std::size_t n) const override;
  [[nodiscard]] std::string name() const override { return "ImpLM (EA)"; }
  [[nodiscard]] int width() const override { return n_; }

 private:
  template <class U>
  struct Policy;
  int n_;
};

}  // namespace realm::mult
