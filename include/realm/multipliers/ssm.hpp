// SSM / ESSM — static segment multipliers of Narayanamoorthy et al. [14].
//
// SSM(m) picks one of two static m-bit segments of each operand: the top
// segment [N-1 : N-m] whenever any of the upper bits is set, else the
// operand itself.  The m×m product is shifted back by the segment offsets.
// Dropping the low bits makes the error one-sided negative.
//
// ESSM(m) ("extended" SSM) adds a middle segment at offset (N-m)/2, halving
// the worst-case truncation; ESSM8 on 16-bit operands uses segments at
// offsets {8, 4, 0}.

#pragma once

#include "realm/multiplier.hpp"

namespace realm::mult {

class SsmMultiplier final : public Multiplier {
 public:
  /// n: operand width; m: segment width (m <= n).
  SsmMultiplier(int n, int m);

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
};

class EssmMultiplier final : public Multiplier {
 public:
  /// n: operand width; m: segment width; (n-m) must be even so the middle
  /// segment offset (n-m)/2 is integral.
  EssmMultiplier(int n, int m);

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
};

}  // namespace realm::mult
