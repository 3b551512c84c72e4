// IntALP — integer version of ApproxLP [11], built for comparison exactly as
// the REALM paper describes (§II, §IV-A): compute the characteristic and
// fractional parts of the integer inputs, apply a linear-plane approximation
// to the product of the mantissas (1+x)(1+y) = 1 + x + y + xy, and scale by
// the sum of the characteristics.
//
// Level 1 approximates the bilinear term xy by one plane per side of the
// x+y = 1 comparator, each chosen as the *tight upper* plane (touching xy at
// the region's tangent point), which makes the error one-sided positive with
// a +12.5 % peak — the IntALP (L=1) row of Table I.
//
// Level 2 adds a least-squares plane correction of the level-1 residual per
// (x, y) MSB quadrant, making the error double-sided and small at the cost
// of wider selection/mux logic (why its resource gain is poor).
// residual_planes() derives and quantizes the coefficients once per process;
// the model and hw::build_intalp both read that one table.

#pragma once

#include <array>
#include <cstdint>

#include "realm/multiplier.hpp"

namespace realm::mult {

class IntAlpMultiplier final : public Multiplier {
 public:
  /// n: operand width; level: 1 or 2 approximation levels.
  IntAlpMultiplier(int n, int level);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  /// Batch and range kernels generated from the datapath policy
  /// (src/multipliers/datapath.hpp); bit-identical to multiply().
  void multiply_batch(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* out, std::size_t n) const override;
  void multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,
                          std::uint64_t* out, std::size_t n) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int width() const override { return n_; }

  /// Fraction bits of the residual-plane coefficients.
  static constexpr int kCoeffBits = 10;
  /// One plane ax·x + ay·y + c over the Q(w) fractions x, y of the operands.
  struct Plane {
    std::int64_t ax, ay, c;  // Q(kCoeffBits) fixed-point coefficients
  };
  /// The level-2 residual planes, indexed by quadrant qx*2 + qy (the MSBs
  /// of x and y).  They do not depend on the operand width.
  [[nodiscard]] static const std::array<Plane, 4>& residual_planes();

 private:
  template <class U>
  struct Policy;  // level 1
  template <class U>
  struct PlanePolicy;  // level 2

  int n_;
  int level_;
  std::array<Plane, 4> quadrant_planes_{};  // level-2 residual correction
};

}  // namespace realm::mult
