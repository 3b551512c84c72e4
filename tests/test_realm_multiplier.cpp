#include "realm/core/realm_multiplier.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "realm/numeric/bits.hpp"
#include "realm/numeric/rng.hpp"

namespace core = realm::core;
namespace num = realm::num;

namespace {

core::RealmMultiplier make(int m, int t, int n = 16, int q = 6) {
  core::RealmConfig cfg;
  cfg.n = n;
  cfg.m = m;
  cfg.t = t;
  cfg.q = q;
  return core::RealmMultiplier{cfg};
}

// Float-domain reference of Eq. 13 with quantized s and truncated fractions —
// an independent derivation the bit model must track closely.
double eq13_reference(const core::RealmMultiplier& mul, std::uint64_t a,
                      std::uint64_t b) {
  const auto& cfg = mul.config();
  const int f = cfg.fraction_bits();
  const int ka = num::leading_one(a);
  const int kb = num::leading_one(b);
  const auto fract = [&](std::uint64_t v, int k) {
    const std::uint64_t full = (v ^ (std::uint64_t{1} << k)) << (cfg.n - 1 - k);
    return static_cast<double>((full >> cfg.t) | 1u) / std::ldexp(1.0, f);
  };
  const double x = fract(a, ka);
  const double y = fract(b, kb);
  const auto i = static_cast<int>(x * cfg.m);
  const auto j = static_cast<int>(y * cfg.m);
  const double s = mul.lut().quantized(i, j);
  if (x + y < 1.0) return std::ldexp(1.0 + x + y + s, ka + kb);
  return std::ldexp(x + y + s / 2.0, ka + kb + 1);
}

}  // namespace

TEST(RealmMultiplier, ZeroOperands) {
  const auto mul = make(16, 0);
  EXPECT_EQ(mul.multiply(0, 12345), 0u);
  EXPECT_EQ(mul.multiply(12345, 0), 0u);
  EXPECT_EQ(mul.multiply(0, 0), 0u);
}

TEST(RealmMultiplier, PowersOfTwoAreExactForM16) {
  // x = y = 0 lands in segment (0,0); s_00 quantizes to zero at q = 6 for
  // M = 16, and the forced-1 rounding bit only perturbs below the product's
  // representable fraction, so power-of-two products come out exact.
  const auto mul = make(16, 0);
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) {
      const std::uint64_t a = std::uint64_t{1} << i;
      const std::uint64_t b = std::uint64_t{1} << j;
      const double rel =
          std::fabs(static_cast<double>(mul.multiply(a, b)) -
                    static_cast<double>(a * b)) /
          static_cast<double>(a * b);
      EXPECT_LT(rel, 2e-4) << i << "," << j;
    }
  }
}

TEST(RealmMultiplier, TracksEq13Reference) {
  num::Xoshiro256 rng{5};
  for (const auto& mul : {make(16, 0), make(8, 3), make(4, 6)}) {
    for (int it = 0; it < 20000; ++it) {
      const std::uint64_t a = 1 + rng.below(65535);
      const std::uint64_t b = 1 + rng.below(65535);
      const double ref = eq13_reference(mul, a, b);
      const auto got = static_cast<double>(mul.multiply(a, b));
      // Bit model truncates where the float reference rounds; agreement is
      // within one unit of the final fraction grid.
      EXPECT_NEAR(got, ref, ref * 1e-3 + 2.0)
          << mul.name() << " a=" << a << " b=" << b;
    }
  }
}

TEST(RealmMultiplier, CommutativeBecauseTableIsSymmetric) {
  num::Xoshiro256 rng{6};
  const auto mul = make(8, 2);
  for (int it = 0; it < 50000; ++it) {
    const std::uint64_t a = rng.below(65536);
    const std::uint64_t b = rng.below(65536);
    EXPECT_EQ(mul.multiply(a, b), mul.multiply(b, a));
  }
}

TEST(RealmMultiplier, RelativeErrorStaysWithinPaperEnvelope) {
  // Peak errors of Table I (t = 0 rows) with a small safety margin.
  struct Row {
    int m;
    double lo, hi;
  };
  for (const Row r : {Row{16, -2.2, 1.9}, Row{8, -3.8, 3.0}, Row{4, -5.9, 5.4}}) {
    const auto mul = make(r.m, 0);
    num::Xoshiro256 rng{7};
    for (int it = 0; it < 200000; ++it) {
      const std::uint64_t a = 1 + rng.below(65535);
      const std::uint64_t b = 1 + rng.below(65535);
      const double exact = static_cast<double>(a) * static_cast<double>(b);
      const double e = 100.0 * (static_cast<double>(mul.multiply(a, b)) - exact) / exact;
      ASSERT_GT(e, r.lo) << "M=" << r.m << " a=" << a << " b=" << b;
      ASSERT_LT(e, r.hi) << "M=" << r.m << " a=" << a << " b=" << b;
    }
  }
}

TEST(RealmMultiplier, SpecialCase1ProductWiderThan2N) {
  // Operands near 2^N - 1 can push the corrected product past 2^2N.
  const auto mul = make(4, 0);  // largest s values
  bool overflowed = false;
  for (std::uint64_t a = 65500; a < 65536; ++a) {
    for (std::uint64_t b = 65500; b < 65536; ++b) {
      const std::uint64_t p = mul.multiply(a, b);
      EXPECT_TRUE(num::fits(p, mul.product_bits()));
      if (!num::fits(p, 32)) overflowed = true;
      EXPECT_TRUE(num::fits(mul.multiply_saturated(a, b), 32));
    }
  }
  EXPECT_TRUE(overflowed) << "expected at least one 33-bit product";
}

TEST(RealmMultiplier, SpecialCase2SmallProductsLoseFractionBits) {
  // With k_a + k_b below the fraction width the final shift drops fraction
  // bits; the result must still be within one integer of Eq. 13.
  const auto mul = make(16, 0);
  for (std::uint64_t a = 1; a < 64; ++a) {
    for (std::uint64_t b = 1; b < 64; ++b) {
      const double ref = eq13_reference(mul, a, b);
      const auto got = static_cast<double>(mul.multiply(a, b));
      EXPECT_LE(got, ref + 1e-9);       // truncation never rounds up
      EXPECT_GT(got, ref - 2.0);
    }
  }
}

TEST(RealmMultiplier, ConfigValidation) {
  EXPECT_THROW(make(16, 0, 1), std::invalid_argument);    // N too small
  EXPECT_THROW(make(16, 0, 32), std::invalid_argument);   // N too large
  EXPECT_THROW(make(16, -1), std::invalid_argument);      // bad t
  EXPECT_THROW(make(16, 12), std::invalid_argument);      // fraction < select bits
  EXPECT_THROW(make(3, 0), std::invalid_argument);        // M not a power of two
  EXPECT_NO_THROW(make(16, 11));                          // f = 4 = select bits: ok
}

TEST(RealmMultiplier, NameEncodesConfiguration) {
  EXPECT_EQ(make(16, 0).name(), "REALM16 (t=0)");
  EXPECT_EQ(make(4, 9).name(), "REALM4 (t=9)");
}

TEST(RealmMultiplier, OtherWidthsBehave) {
  for (const int n : {8, 12, 24, 31}) {
    core::RealmConfig cfg;
    cfg.n = n;
    cfg.m = 8;
    const core::RealmMultiplier mul{cfg};
    num::Xoshiro256 rng{static_cast<std::uint64_t>(n)};
    const std::uint64_t quarter = std::uint64_t{1} << (n - 2);
    for (int it = 0; it < 20000; ++it) {
      // Upper three quarters of the range: the characteristic sum exceeds
      // the fraction width, so special case 2 (fraction loss on tiny
      // products) does not apply and the REALM8 envelope holds at any width.
      const std::uint64_t a = quarter + rng.below(3 * quarter);
      const std::uint64_t b = quarter + rng.below(3 * quarter);
      const double exact = static_cast<double>(a) * static_cast<double>(b);
      const double rel =
          (static_cast<double>(mul.multiply(a, b)) - exact) / exact * 100.0;
      ASSERT_GT(rel, -5.2) << "n=" << n;
      ASSERT_LT(rel, 4.6) << "n=" << n;
    }
  }
}

TEST(RealmMultiplier, TinyProductsAreBoundedByMitchell) {
  // Special case 2 (paper §III-C): when k_a + k_b is below the fraction
  // width, the error-reduction bits fall off the end of the final shift and
  // the design degrades toward Mitchell — but never below Mitchell's
  // -11.11 % floor, and never above the REALM positive envelope.
  core::RealmConfig cfg;
  cfg.n = 8;
  cfg.m = 8;
  const core::RealmMultiplier mul{cfg};
  for (std::uint64_t a = 1; a < 32; ++a) {
    for (std::uint64_t b = 1; b < 32; ++b) {
      const double exact = static_cast<double>(a * b);
      const double rel =
          (static_cast<double>(mul.multiply(a, b)) - exact) / exact * 100.0;
      ASSERT_GE(rel, -100.0 / 9.0 - 1e-6) << a << "," << b;
      ASSERT_LT(rel, 6.0) << a << "," << b;
    }
  }
}
