#include "realm/numeric/fixed_point.hpp"

#include <cassert>
#include <climits>

namespace realm::num {

std::int64_t signed_mul(std::int64_t a, std::int64_t b, const UMulFn& umul) {
  assert(a != INT64_MIN && b != INT64_MIN && "signed_mul: |INT64_MIN| overflows");
  const bool neg = (a < 0) != (b < 0);
  const auto ua = static_cast<std::uint64_t>(a < 0 ? -a : a);
  const auto ub = static_cast<std::uint64_t>(b < 0 ? -b : b);
  const auto p = static_cast<std::int64_t>(umul(ua, ub));
  return neg ? -p : p;
}

}  // namespace realm::num
