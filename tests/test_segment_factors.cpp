#include "realm/core/segment_factors.hpp"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "realm/numeric/quadrature.hpp"

namespace core = realm::core;
namespace num = realm::num;

TEST(MitchellError, AlwaysNonPositiveWithKnownMinimum) {
  double worst = 0.0;
  for (double x = 0.0; x < 1.0; x += 0.01) {
    for (double y = 0.0; y < 1.0; y += 0.01) {
      const double e = core::mitchell_relative_error(x, y);
      EXPECT_LE(e, 1e-15) << x << "," << y;
      worst = std::min(worst, e);
    }
  }
  EXPECT_NEAR(worst, -1.0 / 9.0, 1e-9);  // -11.11 % at (1/2, 1/2)
  EXPECT_NEAR(core::mitchell_relative_error(0.5, 0.5), -1.0 / 9.0, 1e-15);
}

TEST(MitchellError, ZeroAlongAxes) {
  for (double t = 0.0; t < 1.0; t += 0.01) {
    EXPECT_NEAR(core::mitchell_relative_error(0.0, t), 0.0, 1e-15);
    EXPECT_NEAR(core::mitchell_relative_error(t, 0.0), 0.0, 1e-15);
  }
}

TEST(MitchellError, ContinuousAcrossDiagonal) {
  for (double x = 0.05; x < 1.0; x += 0.05) {
    const double y = 1.0 - x;
    const double below = core::mitchell_relative_error(x, y - 1e-9);
    const double above = core::mitchell_relative_error(x, y + 1e-9);
    EXPECT_NEAR(below, above, 1e-7);
  }
}

// ---- closed form vs quadrature: every segment of every practical M ----

class SegmentClosedFormTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SegmentClosedFormTest, MatchesQuadrature) {
  const auto [m, i, j] = GetParam();
  if (i >= m || j >= m) GTEST_SKIP();
  const double w = 1.0 / m;
  const core::Segment seg{i * w, (i + 1) * w, j * w, (j + 1) * w};
  const double cf = core::segment_factor_closed_form(seg);
  const double qd = core::segment_factor_quadrature(seg);
  EXPECT_NEAR(cf, qd, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(GridM4, SegmentClosedFormTest,
                         ::testing::Combine(::testing::Values(4),
                                            ::testing::Range(0, 4),
                                            ::testing::Range(0, 4)));
INSTANTIATE_TEST_SUITE_P(GridM8, SegmentClosedFormTest,
                         ::testing::Combine(::testing::Values(8),
                                            ::testing::Range(0, 8),
                                            ::testing::Range(0, 8)));
// M = 16 sampled along the anti-diagonal (where the dilogarithm terms live)
// plus corners.
INSTANTIATE_TEST_SUITE_P(
    GridM16AntiDiagonal, SegmentClosedFormTest,
    ::testing::Values(std::tuple{16, 0, 15}, std::tuple{16, 15, 0},
                      std::tuple{16, 7, 8}, std::tuple{16, 8, 7},
                      std::tuple{16, 0, 0}, std::tuple{16, 15, 15},
                      std::tuple{16, 3, 12}, std::tuple{16, 12, 3}));

TEST(SegmentFactors, PaperBoundsHoldForPracticalM) {
  // §III-C: "for practical values of M = {4, 8, 16}, s_ij is always positive
  // and < 0.25"; we also check M = 2 and 32.
  for (const int m : {2, 4, 8, 16, 32}) {
    const auto table = core::segment_factor_table(m);
    ASSERT_EQ(table.size(), static_cast<std::size_t>(m * m));
    for (const double s : table) {
      EXPECT_GT(s, 0.0);
      EXPECT_LT(s, 0.25);
    }
  }
}

TEST(SegmentFactors, TableIsSymmetric) {
  // E~rel is symmetric in (x, y), so s_ij = s_ji.
  for (const int m : {4, 8, 16}) {
    const auto t = core::segment_factor_table(m);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < i; ++j) {
        EXPECT_NEAR(t[static_cast<std::size_t>(i * m + j)],
                    t[static_cast<std::size_t>(j * m + i)], 1e-12);
      }
    }
  }
}

TEST(SegmentFactors, ZeroesTheMeanRelativeErrorPerSegment) {
  // Defining property (Eq. 8): with s applied, ∫∫ (E~ + s·g) = 0 per segment.
  const int m = 8;
  const double w = 1.0 / m;
  for (const auto& [i, j] :
       std::initializer_list<std::pair<int, int>>{{0, 0}, {3, 4}, {7, 0}, {5, 5}, {2, 7}}) {
    const core::Segment seg{i * w, (i + 1) * w, j * w, (j + 1) * w};
    const double s = core::segment_factor_closed_form(seg);
    const double residual = num::integrate2d(
        [&](double x, double y) {
          return core::mitchell_relative_error(x, y) +
                 s / ((1.0 + x) * (1.0 + y));
        },
        seg.x0, seg.x1, seg.y0, seg.y1, 1e-11);
    EXPECT_NEAR(residual, 0.0, 1e-9) << i << "," << j;
  }
}

TEST(SegmentFactors, CentreSegmentsCarryTheLargestFactors) {
  // Mitchell error peaks at x = y = 1/2, so the factors near the centre of
  // the anti-diagonal must dominate.
  const int m = 16;
  const auto t = core::segment_factor_table(m);
  const double centre = t[static_cast<std::size_t>(8 * m + 7)];
  EXPECT_GT(centre, t[0]);
  EXPECT_GT(centre, t[static_cast<std::size_t>(15 * m + 15)]);
  EXPECT_GT(centre, 0.2);
}

TEST(SegmentFactors, WholeIntervalFactorMatchesSingleSegment) {
  // M = 1: the factor for the whole unit square from the same machinery.
  const double s = core::segment_factor_closed_form({0.0, 1.0, 0.0, 1.0});
  const double q = core::segment_factor_quadrature({0.0, 1.0, 0.0, 1.0});
  EXPECT_NEAR(s, q, 1e-9);
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, 0.25);
}

TEST(SegmentFactors, RejectsBadBounds) {
  EXPECT_THROW((void)core::segment_factor_closed_form({0.5, 0.5, 0.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)core::segment_factor_closed_form({-0.1, 0.5, 0.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)core::segment_factor_closed_form({0.0, 1.1, 0.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(core::segment_factor_table(0), std::invalid_argument);
}

TEST(SegmentFactors, MbmConstantIsOneTwelfth) {
  // Analytic claim used by the MBM baseline: average absolute Mitchell error
  // over the unit square, normalized by 2^(ka+kb), is exactly 1/12.
  const double avg = num::integrate2d(
      [](double x, double y) {
        const double exact = (1.0 + x) * (1.0 + y);
        const double approx = x + y < 1.0 ? 1.0 + x + y : 2.0 * (x + y);
        return approx - exact;
      },
      0, 1, 0, 1, 1e-11);
  EXPECT_NEAR(-avg, core::mbm_correction(), 1e-9);
  EXPECT_DOUBLE_EQ(core::mbm_correction(), 1.0 / 12.0);
}
