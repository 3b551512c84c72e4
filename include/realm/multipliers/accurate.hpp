// Exact unsigned integer multiplier — the accuracy and cost reference of
// every experiment (the paper's accurate design is a Wallace-tree multiplier;
// its gate-level model lives in src/hw/circuits/accurate_mult.cpp).

#pragma once

#include "realm/multiplier.hpp"

namespace realm::mult {

class AccurateMultiplier final : public Multiplier {
 public:
  explicit AccurateMultiplier(int n = 16);

  [[nodiscard]] std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override;
  void multiply_batch(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* out, std::size_t n) const override;
  /// Range kernel: one multiply per element, fixed operand in a register.
  void multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,
                          std::uint64_t* out, std::size_t n) const override;
  [[nodiscard]] std::string name() const override { return "Accurate"; }
  [[nodiscard]] int width() const override { return n_; }

 private:
  int n_;
};

}  // namespace realm::mult
