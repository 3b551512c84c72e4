#include "realm/numeric/fixed_point.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "realm/multiplier.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/rng.hpp"

namespace num = realm::num;

namespace {
const num::UMulFn kExact = [](std::uint64_t a, std::uint64_t b) { return a * b; };

// Signed operands whose magnitudes span the multipliers' full 16-bit
// datapath (the designs assert their operands fit the configured width).
std::vector<std::int64_t> random_operands(std::size_t n, std::uint64_t seed) {
  realm::num::Xoshiro256 rng{seed};
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.below(0x1FFFF)) - 0xFFFF;
  return v;
}
}  // namespace

TEST(FixedPoint, SignedMulSignGrid) {
  EXPECT_EQ(num::signed_mul(3, 4, kExact), 12);
  EXPECT_EQ(num::signed_mul(-3, 4, kExact), -12);
  EXPECT_EQ(num::signed_mul(3, -4, kExact), -12);
  EXPECT_EQ(num::signed_mul(-3, -4, kExact), 12);
  EXPECT_EQ(num::signed_mul(0, -4, kExact), 0);
}

TEST(FixedPoint, SignedMulRoutesThroughProvidedMultiplier) {
  int calls = 0;
  const num::UMulFn counting = [&](std::uint64_t a, std::uint64_t b) {
    ++calls;
    return a * b;
  };
  EXPECT_EQ(num::signed_mul(-5, 6, counting), -30);
  EXPECT_EQ(calls, 1);
}

TEST(FixedPoint, SatSignedClampsToRange) {
  EXPECT_EQ(num::sat_signed(40000, 16), 32767);
  EXPECT_EQ(num::sat_signed(-40000, 16), -32768);
  EXPECT_EQ(num::sat_signed(123, 16), 123);
  EXPECT_EQ(num::sat_signed(-32768, 16), -32768);
  EXPECT_EQ(num::sat_signed(32767, 16), 32767);
}

// --- the engine: fixed-operand signed row batch ---

TEST(FixedPoint, SignedRowBatchMatchesScalarLoop) {
  const auto b = random_operands(600, 0xC);
  for (const char* spec : {"accurate", "realm:m=16,t=8", "mbm:t=0"}) {
    const auto mul = realm::mult::make_multiplier(spec, 16);
    const auto f = mul->as_function();
    for (const std::int64_t a : {std::int64_t{-37}, std::int64_t{0}, std::int64_t{41}}) {
      std::vector<std::int64_t> out(b.size());
      num::signed_row_batch(a, b.data(), out.data(), b.size(), *mul);
      for (std::size_t i = 0; i < b.size(); ++i) {
        ASSERT_EQ(out[i], num::signed_mul(a, b[i], f)) << spec << " a=" << a << " i=" << i;
      }
    }
  }
}

TEST(FixedPoint, BatchHandlesEmptyAndOddLengths) {
  const auto mul = realm::mult::make_multiplier("realm:m=16,t=8", 16);
  const auto f = mul->as_function();
  num::signed_row_batch(7, nullptr, nullptr, 0, *mul);  // n = 0 is a no-op
  // 513 crosses the internal 512-element chunk boundary by one.
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{513}}) {
    const std::int64_t a = random_operands(1, 0xD0 + n)[0];
    const auto b = random_operands(n, 0xE0 + n);
    std::vector<std::int64_t> out(n);
    num::signed_row_batch(a, b.data(), out.data(), n, *mul);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], num::signed_mul(a, b[i], f)) << "n=" << n << " i=" << i;
    }
  }
}

#ifndef NDEBUG
TEST(FixedPointDeathTest, SignedMulRejectsInt64MinInDebug) {
  // |INT64_MIN| is not representable: the magnitude-domain precondition.
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  EXPECT_DEATH((void)num::signed_mul(lo, 1, kExact), "INT64_MIN");
  EXPECT_DEATH((void)num::signed_mul(1, lo, kExact), "INT64_MIN");
}
#endif
