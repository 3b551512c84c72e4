#include "realm/numeric/fixed_point.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace num = realm::num;

namespace {
const num::UMulFn kExact = [](std::uint64_t a, std::uint64_t b) { return a * b; };
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

#ifndef NDEBUG
TEST(FixedPointDeathTest, SignedMulRejectsInt64MinInDebug) {
  // |INT64_MIN| is not representable: the magnitude-domain precondition.
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  EXPECT_DEATH((void)num::signed_mul(lo, 1, kExact), "INT64_MIN");
  EXPECT_DEATH((void)num::signed_mul(1, lo, kExact), "INT64_MIN");
}
#endif
