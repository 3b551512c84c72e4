// ALM-SOA / ALM-MAA — approximate log-based multipliers of Liu et al. [9].
//
// Same log-add-antilog pipeline as Mitchell, but the fraction addition uses
// an approximate adder on its m least-significant bits:
//
//   * SOA (set-one adder): the low m sum bits are constant 1 and the carry
//     between the halves is dropped — biases the sum upward, which partially
//     cancels Mitchell's negative bias for large m (the paper's ALM-SOA
//     m=11/12 rows show the reduced mean error and positive peak error).
//   * MAA (modeled after the lower-part OR adder family): the low m sum bits
//     are a OR b and the inter-half carry is predicted as the AND of the top
//     low-part bits.  We only have this paper's description of [9], so MAA is
//     reimplemented from the LOA semantics its family shares; DESIGN.md
//     records the substitution.

#pragma once

#include "realm/multiplier.hpp"

namespace realm::mult {

enum class AlmAdder { kSetOne, kLowerOr };

class AlmMultiplier final : public Multiplier {
 public:
  /// n: operand width; m: approximate low bits of the fraction adder
  /// (0 <= m <= n-1); adder: which approximate adder variant.
  AlmMultiplier(int n, int m, AlmAdder adder);

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
  template <class U>
  struct Policy;
  int n_;
  int m_;
  AlmAdder adder_;
};

}  // namespace realm::mult
