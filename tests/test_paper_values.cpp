// Regression tests against the numbers the paper reports.
//
// Error metrics are properties of the bit-level designs, so our Monte-Carlo
// runs must land on Table I within sampling noise (tolerances below are a
// few times the standard error at 2^20 samples, plus one least-count of the
// paper's two-decimal rounding).  Synthesis-derived quantities (area/power)
// go through our cost-model substitution and are asserted as *trends* here;
// EXPERIMENTS.md records the absolute comparison.

#include <cctype>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "realm/error/monte_carlo.hpp"
#include "realm/multipliers/registry.hpp"

using namespace realm;

namespace {

struct PaperRow {
  const char* spec;
  double bias, mean, min, max, variance;
};

// Print a row by its spec.  Without this gtest dumps the raw bytes of the
// struct, including the address of `spec`, so the listed test names would
// change from run to run.
void PrintTo(const PaperRow& row, std::ostream* os) { *os << row.spec; }

// Table I (error columns), transcribed from the paper.
constexpr PaperRow kLogFamilyRows[] = {
    {"realm:m=16,t=0", 0.01, 0.42, -2.08, 1.79, 0.28},
    {"realm:m=16,t=1", 0.01, 0.42, -2.07, 1.79, 0.28},
    {"realm:m=16,t=4", 0.02, 0.42, -2.12, 1.84, 0.28},
    {"realm:m=16,t=8", 0.04, 0.55, -2.87, 2.66, 0.47},
    {"realm:m=8,t=0", -0.05, 0.75, -3.70, 2.88, 0.92},
    {"realm:m=8,t=5", -0.04, 0.75, -3.81, 3.06, 0.92},
    {"realm:m=8,t=9", -0.18, 1.06, -5.27, 4.81, 1.75},
    {"realm:m=4,t=0", -0.02, 1.38, -5.71, 5.21, 3.07},
    {"realm:m=4,t=9", -0.22, 1.58, -7.35, 7.29, 3.96},
    {"calm", -3.85, 3.85, -11.11, 0.00, 8.63},
    {"mbm:t=0", -0.09, 2.58, -7.64, 7.81, 10.02},
    {"mbm:t=9", -0.38, 2.70, -10.19, 10.94, 11.33},
    {"implm", -0.04, 2.89, -11.11, 11.11, 14.70},
};

class PaperErrorRowTest : public ::testing::TestWithParam<PaperRow> {};

}  // namespace

TEST_P(PaperErrorRowTest, MatchesTable1) {
  const PaperRow row = GetParam();
  const auto m = mult::make_multiplier(row.spec, 16);
  err::MonteCarloOptions opts;
  opts.samples = 1 << 20;
  const auto r = err::monte_carlo(*m, opts);
  EXPECT_NEAR(r.bias, row.bias, 0.05) << row.spec;
  EXPECT_NEAR(r.mean, row.mean, 0.05) << row.spec;
  EXPECT_NEAR(r.min, row.min, 0.25) << row.spec;  // extremes need dense sampling
  EXPECT_NEAR(r.max, row.max, 0.25) << row.spec;
  EXPECT_NEAR(r.variance, row.variance, 0.20) << row.spec;
}

INSTANTIATE_TEST_SUITE_P(Table1, PaperErrorRowTest, ::testing::ValuesIn(kLogFamilyRows),
                         [](const ::testing::TestParamInfo<PaperRow>& row_info) {
                           std::string s{row_info.param.spec};
                           for (char& c : s) {
                             if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
                           }
                           return s;
                         });

TEST(PaperValues, Drum8MatchesTable1) {
  const auto m = mult::make_multiplier("drum:k=8", 16);
  err::MonteCarloOptions opts;
  opts.samples = 1 << 20;
  const auto r = err::monte_carlo(*m, opts);
  EXPECT_NEAR(r.bias, 0.01, 0.05);
  EXPECT_NEAR(r.mean, 0.37, 0.05);
  EXPECT_NEAR(r.min, -1.49, 0.15);
  EXPECT_NEAR(r.max, 1.57, 0.15);
}

TEST(PaperValues, SsmOneSidedMagnitudes) {
  err::MonteCarloOptions opts;
  opts.samples = 1 << 20;
  const auto r10 = err::monte_carlo(*mult::make_multiplier("ssm:m=10", 16), opts);
  EXPECT_NEAR(r10.bias, -0.40, 0.05);
  EXPECT_NEAR(r10.mean, 0.40, 0.05);
  EXPECT_DOUBLE_EQ(r10.max, 0.0);
  const auto r8 = err::monte_carlo(*mult::make_multiplier("essm:m=8", 16), opts);
  EXPECT_NEAR(r8.mean, 1.14, 0.08);
  EXPECT_GT(r8.min, -11.8);
}

TEST(PaperValues, RealmBiasStaysTinyUpToT8) {
  // §IV-C: "very low error bias for all values of M (<= 0.05 % for t <= 8)".
  err::MonteCarloOptions opts;
  opts.samples = 1 << 20;
  for (const int m : {4, 8, 16}) {
    for (const int t : {0, 2, 4, 6, 8}) {
      const auto mul = mult::make_multiplier(
          "realm:m=" + std::to_string(m) + ",t=" + std::to_string(t), 16);
      const auto r = err::monte_carlo(*mul, opts);
      EXPECT_LE(std::abs(r.bias), 0.08) << mul->name();
    }
  }
}

TEST(PaperValues, ErrorImprovesWithMoreSegments) {
  // §IV-C: "the error improves with more partitions (increasing M)".
  err::MonteCarloOptions opts;
  opts.samples = 1 << 20;
  const auto r4 = err::monte_carlo(*mult::make_multiplier("realm:m=4,t=0", 16), opts);
  const auto r8 = err::monte_carlo(*mult::make_multiplier("realm:m=8,t=0", 16), opts);
  const auto r16 = err::monte_carlo(*mult::make_multiplier("realm:m=16,t=0", 16), opts);
  EXPECT_LT(r16.mean, r8.mean);
  EXPECT_LT(r8.mean, r4.mean);
  EXPECT_LT(r16.peak(), r8.peak());
  EXPECT_LT(r8.peak(), r4.peak());
}

TEST(PaperValues, TruncationBelowSevenBarelyMoves) {
  // §IV-C: "the effect of bit truncation on error becomes more prominent
  // when t >= 7"; below that the mean error moves by hundredths.
  err::MonteCarloOptions opts;
  opts.samples = 1 << 20;
  const auto r0 = err::monte_carlo(*mult::make_multiplier("realm:m=16,t=0", 16), opts);
  const auto r6 = err::monte_carlo(*mult::make_multiplier("realm:m=16,t=6", 16), opts);
  const auto r9 = err::monte_carlo(*mult::make_multiplier("realm:m=16,t=9", 16), opts);
  EXPECT_NEAR(r6.mean, r0.mean, 0.06);
  EXPECT_GT(r9.mean, r0.mean + 0.3);
}

TEST(PaperValues, RealmBeatsEveryOtherLogBasedDesignOnMeanError) {
  // Fig. 1 / §I: REALM16 mean error 0.42 % vs >= 2.58 % for the other
  // log-based multipliers.
  err::MonteCarloOptions opts;
  opts.samples = 1 << 19;
  const double realm =
      err::monte_carlo(*mult::make_multiplier("realm:m=16,t=0", 16), opts).mean;
  for (const char* spec : {"calm", "mbm:t=0", "alm-soa:m=3", "alm-maa:m=3", "implm"}) {
    const double other = err::monte_carlo(*mult::make_multiplier(spec, 16), opts).mean;
    EXPECT_LT(realm, other - 1.5) << spec;
  }
}
