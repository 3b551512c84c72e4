// Signed multiplication on an unsigned core (paper §III-C, DRUM's
// sign-magnitude scheme): the scalar reference num::signed_mul and the
// gate-level wrapper build_signed_circuit must compute the same signed
// product.

#include <gtest/gtest.h>

#include <cstdint>

#include "realm/hw/circuits.hpp"
#include "realm/hw/simulator.hpp"
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

TEST(SignedCircuit, MatchesTheBehavioralAdapter) {
  // The gate-level wrapper against the behavioral product num::signed_mul.
  num::Xoshiro256 rng{4};
  for (const char* spec : {"accurate", "calm", "realm:m=8,t=4", "drum:k=6"}) {
    const auto model = mult::make_multiplier(spec, 16);
    const auto f = model->as_function();
    const hw::Module mod = hw::build_signed_circuit(spec, 16);
    hw::Simulator sim{mod};
    const int out_bits = static_cast<int>(mod.outputs()[0].bus.size());
    for (int it = 0; it < 2000; ++it) {
      const auto a = static_cast<std::int64_t>(rng.below(65536)) - 32768;
      const auto b = static_cast<std::int64_t>(rng.below(65536)) - 32768;
      const std::uint64_t raw =
          sim.run({static_cast<std::uint64_t>(a) & 0xFFFF,
                   static_cast<std::uint64_t>(b) & 0xFFFF});
      // Two's-complement decode of the out_bits-wide product bus.
      std::int64_t got = static_cast<std::int64_t>(raw);
      if ((raw >> (out_bits - 1)) & 1u) {
        got -= std::int64_t{1} << out_bits;
      }
      ASSERT_EQ(got, num::signed_mul(a, b, f)) << spec << " a=" << a << " b=" << b;
    }
  }
}
