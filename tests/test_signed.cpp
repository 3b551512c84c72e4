// Signed multiplication on an unsigned core (paper §III-C, DRUM's
// sign-magnitude scheme): the behavioral adapter num::signed_mul, which the
// JPEG reference codec multiplies through.

#include <gtest/gtest.h>

#include <cstdint>

#include "realm/multiplier.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/fixed_point.hpp"
#include "realm/numeric/rng.hpp"

using namespace realm;

namespace {

std::int64_t signed_product(const Multiplier& mul, std::int64_t a, std::int64_t b) {
  return num::signed_mul(a, b, mul.as_function());
}

}  // namespace

TEST(SignedAdapter, ExactCoreGivesExactSignedProducts) {
  const auto mul = mult::make_multiplier("accurate", 16);
  num::Xoshiro256 rng{1};
  for (int it = 0; it < 50000; ++it) {
    const auto a = static_cast<std::int64_t>(rng.below(65536)) - 32768;
    const auto b = static_cast<std::int64_t>(rng.below(65536)) - 32768;
    ASSERT_EQ(signed_product(*mul, a, b), a * b);
  }
}

TEST(SignedAdapter, SignGrid) {
  const auto mul = mult::make_multiplier("accurate", 16);
  EXPECT_EQ(signed_product(*mul, 100, 200), 20000);
  EXPECT_EQ(signed_product(*mul, -100, 200), -20000);
  EXPECT_EQ(signed_product(*mul, 100, -200), -20000);
  EXPECT_EQ(signed_product(*mul, -100, -200), 20000);
  EXPECT_EQ(signed_product(*mul, 0, -200), 0);
  EXPECT_EQ(signed_product(*mul, -32768, -32768), 32768LL * 32768LL);  // INT_MIN edge
}

TEST(SignedAdapter, ApproximateErrorIsSignSymmetric) {
  // Sign-magnitude: |error(a,b)| must be identical across all sign
  // combinations of the same magnitudes.
  const auto mul = mult::make_multiplier("realm:m=8,t=2", 16);
  num::Xoshiro256 rng{2};
  for (int it = 0; it < 20000; ++it) {
    const auto a = static_cast<std::int64_t>(1 + rng.below(32767));
    const auto b = static_cast<std::int64_t>(1 + rng.below(32767));
    const std::int64_t pp = signed_product(*mul, a, b);
    ASSERT_EQ(signed_product(*mul, -a, b), -pp);
    ASSERT_EQ(signed_product(*mul, a, -b), -pp);
    ASSERT_EQ(signed_product(*mul, -a, -b), pp);
  }
}

TEST(SignedAdapter, RealmErrorEnvelopeCarriesOver) {
  const auto mul = mult::make_multiplier("realm:m=16,t=0", 16);
  num::Xoshiro256 rng{3};
  for (int it = 0; it < 50000; ++it) {
    const auto a = static_cast<std::int64_t>(rng.below(65535)) - 32767;
    const auto b = static_cast<std::int64_t>(rng.below(65535)) - 32767;
    if (a == 0 || b == 0) continue;
    const double exact = static_cast<double>(a) * static_cast<double>(b);
    const double rel =
        100.0 * (static_cast<double>(signed_product(*mul, a, b)) - exact) / exact;
    ASSERT_GT(rel, -2.3);
    ASSERT_LT(rel, 2.0);
  }
}
