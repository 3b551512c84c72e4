// AM1 / AM2 — approximate multipliers with configurable error recovery,
// Jiang et al. [15].
//
// The partial products are reduced by a tree of *approximate adders* that
// produce a carry-free sum (a XOR b) plus an error vector (a AND b, the
// dropped carries).  Error recovery re-injects the accumulated error vector
// for the `nb` most-significant product columns only:
//
//   * AM1 adds the masked error vector back with an exact adder;
//   * AM2 merges it with a cheaper OR, losing any coincident bits.
//
// Dropped carries can only shrink the product, so the error is one-sided
// negative with a heavy worst-case tail (the -61 % minima in Table I) and a
// bias that improves as nb grows.  Reimplemented from the description in the
// REALM paper and [15]'s published error profiles; see DESIGN.md §3.
//
// The reduction tree is defined once, as a template over a lane type and
// count (src/multipliers/am.cpp): multiply() is its 1-lane instantiation and
// multiply_batch()/multiply_row_range() its vectorized ones, 16 32-bit lanes
// at N = 16 and 8 64-bit lanes otherwise, so the paths cannot drift apart.

#pragma once

#include "realm/multiplier.hpp"

namespace realm::mult {

enum class AmVariant { kAm1, kAm2 };

class AmMultiplier final : public Multiplier {
 public:
  /// n: operand width; nb: number of most-significant product columns with
  /// error recovery, 0 <= nb <= 2n.
  AmMultiplier(int n, int nb, AmVariant variant);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  /// Lane-blocked kernel: the same reduction tree over 16 pairs at a time
  /// at N = 16 and 8 otherwise, with the variant chosen once per call.
  void multiply_batch(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* out, std::size_t n) const override;
  /// The batch kernel over the materialized column range, with the fixed
  /// operand broadcast into its a block.
  void multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,
                          std::uint64_t* out, std::size_t n) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int width() const override { return n_; }

 private:
  int n_;
  int nb_;
  AmVariant variant_;
  std::uint64_t recov_mask_ = 0;  // the nb most-significant product columns
};

}  // namespace realm::mult
