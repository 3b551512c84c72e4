#include "realm/multipliers/accurate.hpp"

#include <cassert>
#include <stdexcept>

#include "realm/numeric/bits.hpp"
#include "realm/numeric/simd.hpp"

namespace realm::mult {
namespace {

REALM_MULTIVERSION
void accurate_batch_kernel(const std::uint64_t* __restrict a,
                           const std::uint64_t* __restrict b,
                           std::uint64_t* __restrict out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

REALM_MULTIVERSION
void accurate_row_range_kernel(std::uint64_t a_fixed, std::uint64_t b0,
                               std::uint64_t* __restrict out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a_fixed * (b0 + i);
}

}  // namespace

AccurateMultiplier::AccurateMultiplier(int n) : n_{n} {
  if (n < 1 || n > 31) throw std::invalid_argument("AccurateMultiplier: N in [1, 31]");
}

std::uint64_t AccurateMultiplier::multiply(std::uint64_t a, std::uint64_t b) const {
  assert(num::fits(a, n_) && num::fits(b, n_));
  return a * b;
}

void AccurateMultiplier::multiply_batch(const std::uint64_t* a, const std::uint64_t* b,
                                        std::uint64_t* out, std::size_t n) const {
  accurate_batch_kernel(a, b, out, n);
}

void AccurateMultiplier::multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,
                                            std::uint64_t* out, std::size_t n) const {
  assert(num::fits(a_fixed, n_) && (n == 0 || num::fits(b0 + n - 1, n_)));
  accurate_row_range_kernel(a_fixed, b0, out, n);
}

}  // namespace realm::mult
