#include "realm/error/monte_carlo.hpp"

#include <gtest/gtest.h>

#include "realm/multipliers/accurate.hpp"
#include "realm/multipliers/mitchell.hpp"
#include "realm/multipliers/registry.hpp"

using namespace realm;

TEST(MonteCarlo, AccurateMultiplierHasZeroError) {
  const mult::AccurateMultiplier m{16};
  err::MonteCarloOptions opts;
  opts.samples = 1 << 16;
  const auto r = err::monte_carlo(m, opts);
  EXPECT_EQ(r.bias, 0.0);
  EXPECT_EQ(r.mean, 0.0);
  EXPECT_EQ(r.min, 0.0);
  EXPECT_EQ(r.max, 0.0);
  EXPECT_GT(r.samples, 0u);
}

TEST(MonteCarlo, DeterministicAcrossThreadCounts) {
  const mult::MitchellMultiplier m{16};
  err::MonteCarloOptions opts;
  opts.samples = 1 << 18;
  opts.threads = 1;
  const auto r1 = err::monte_carlo(m, opts);
  opts.threads = 4;
  const auto r4 = err::monte_carlo(m, opts);
  // The shard grid is a function of the sample budget alone and shards merge
  // in index order, so the thread count changes nothing — bit-identical.
  EXPECT_EQ(r1.samples, r4.samples);
  EXPECT_EQ(r1.bias, r4.bias);
  EXPECT_EQ(r1.mean, r4.mean);
  EXPECT_EQ(r1.variance, r4.variance);
  EXPECT_EQ(r1.min, r4.min);
  EXPECT_EQ(r1.max, r4.max);
}

TEST(MonteCarlo, SameSeedSameResult) {
  const mult::MitchellMultiplier m{16};
  err::MonteCarloOptions opts;
  opts.samples = 1 << 16;
  opts.threads = 2;
  const auto a = err::monte_carlo(m, opts);
  const auto b = err::monte_carlo(m, opts);
  EXPECT_EQ(a.bias, b.bias);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.samples, b.samples);
}

TEST(MonteCarlo, AgreesWithExhaustiveFor8Bit) {
  const auto m = mult::make_multiplier("calm", 8);
  const auto ex = err::exhaustive_report(*m).metrics;
  err::MonteCarloOptions opts;
  opts.samples = 1 << 20;
  const auto mc = err::monte_carlo(*m, opts);
  EXPECT_NEAR(ex.bias, mc.bias, 0.1);
  EXPECT_NEAR(ex.mean, mc.mean, 0.1);
  // Peaks are attained on a dense grid; Monte-Carlo finds them for 8-bit.
  EXPECT_NEAR(ex.min, mc.min, 0.3);
}

TEST(Exhaustive, RangeRestriction) {
  const auto m = mult::make_multiplier("calm", 8);
  // One power-of-two interval.
  const auto r = err::exhaustive_report(*m, nullptr, 32, 63).metrics;
  EXPECT_EQ(r.samples, 32u * 32u);
  EXPECT_LE(r.max, 0.0);  // Mitchell never overestimates
}

TEST(MonteCarloHistogram, FillsHistogramAndMatchesMetrics) {
  const auto m = mult::make_multiplier("realm:m=8,t=0", 16);
  err::Histogram hist{-10.0, 10.0, 101};
  err::MonteCarloOptions opts;
  opts.samples = 1 << 16;
  const auto r = err::monte_carlo(*m, opts, &hist);
  EXPECT_EQ(hist.total(), r.samples);
  EXPECT_EQ(hist.underflow(), 0u);  // REALM8 peak error ~±3.7 %
  EXPECT_EQ(hist.overflow(), 0u);
  // The distribution is centred near zero (low bias).
  std::uint64_t centre_mass = 0;
  for (int b = 40; b <= 60; ++b) centre_mass += hist.count(b);
  EXPECT_GT(static_cast<double>(centre_mass) / static_cast<double>(hist.total()), 0.8);
}
