#include "realm/numeric/fixed_point.hpp"

#include <cassert>
#include <climits>
#include <cstdlib>

#include "realm/multiplier.hpp"
#include "realm/numeric/simd.hpp"

namespace realm::num {

namespace {

// Stack-block size for the row batch: big enough that the devirtualized
// kernels amortize their per-call setup, small enough that both blocks
// (magnitudes + products) stay L1-resident alongside the caller's lanes.
constexpr std::size_t kBlock = 512;

// The two per-element halves of the row batch, compiled per ISA: the
// magnitude split before the unsigned kernel and the sign re-application
// after it.
REALM_MULTIVERSION
void split_magnitudes(const std::int64_t* __restrict b, std::uint64_t* __restrict ub,
                      std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t bv = b[i];
    assert(bv != INT64_MIN && "signed_row_batch: |INT64_MIN| overflows");
    ub[i] = static_cast<std::uint64_t>(bv < 0 ? -bv : bv);
  }
}

REALM_MULTIVERSION
void apply_signs(const std::uint64_t* __restrict prod, const std::int64_t* __restrict b,
                 bool a_neg, std::int64_t* __restrict out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = static_cast<std::int64_t>(prod[i]);
    out[i] = (b[i] < 0) != a_neg ? -p : p;
  }
}

}  // namespace

std::int64_t signed_mul(std::int64_t a, std::int64_t b, const UMulFn& umul) {
  assert(a != INT64_MIN && b != INT64_MIN && "signed_mul: |INT64_MIN| overflows");
  const bool neg = (a < 0) != (b < 0);
  const auto ua = static_cast<std::uint64_t>(a < 0 ? -a : a);
  const auto ub = static_cast<std::uint64_t>(b < 0 ? -b : b);
  const auto p = static_cast<std::int64_t>(umul(ua, ub));
  return neg ? -p : p;
}

void signed_row_batch(std::int64_t a_fixed, const std::int64_t* b, std::int64_t* out,
                      std::size_t n, const Multiplier& mul) {
  assert(a_fixed != INT64_MIN && "signed_row_batch: |INT64_MIN| overflows");
  const bool a_neg = a_fixed < 0;
  const auto ua = static_cast<std::uint64_t>(a_neg ? -a_fixed : a_fixed);
  std::uint64_t ub[kBlock], prod[kBlock];
  for (std::size_t i0 = 0; i0 < n; i0 += kBlock) {
    const std::size_t len = n - i0 < kBlock ? n - i0 : kBlock;
    split_magnitudes(b + i0, ub, len);
    mul.multiply_row_batch(ua, ub, prod, len);
    apply_signs(prod, b + i0, a_neg, out + i0, len);
  }
}

}  // namespace realm::num
