#include "realm/dsp/filter.hpp"

#include <numeric>

#include <gtest/gtest.h>

#include "realm/jpeg/quality.hpp"
#include "realm/jpeg/synthetic.hpp"
#include "realm/multipliers/accurate.hpp"
#include "realm/multipliers/registry.hpp"

using namespace realm;

namespace {
const mult::AccurateMultiplier kExact{16};
}

TEST(GaussianKernel, NormalizedAndPeakedAtCentre) {
  const auto k = dsp::gaussian_kernel(5, 1.0);
  ASSERT_EQ(k.size(), 25u);
  EXPECT_NEAR(std::accumulate(k.begin(), k.end(), 0.0), 1.0, 1e-12);
  for (const double v : k) EXPECT_LE(v, k[12] + 1e-15);  // centre dominates
  EXPECT_NEAR(k[0], k[24], 1e-15);                       // symmetric
  EXPECT_THROW((void)dsp::gaussian_kernel(4, 1.0), std::invalid_argument);
  EXPECT_THROW((void)dsp::gaussian_kernel(5, 0.0), std::invalid_argument);
}

TEST(Convolve, IdentityKernelIsAlmostIdentity) {
  const auto img = jpeg::synthetic_lena(64);
  std::vector<double> identity(9, 0.0);
  identity[4] = 1.0;
  const auto out = dsp::convolve_batch(img, identity, 3, kExact);
  EXPECT_GT(jpeg::psnr(img, out), 55.0);  // only Q10 tap quantization
}

TEST(Convolve, BoxBlurPreservesMeanRoughly) {
  const auto img = jpeg::synthetic_cameraman(64);
  const std::vector<double> box(9, 1.0 / 9.0);
  const auto out = dsp::convolve_batch(img, box, 3, kExact);
  double mi = 0, mo = 0;
  for (const auto p : img.pixels()) mi += p;
  for (const auto p : out.pixels()) mo += p;
  mi /= static_cast<double>(img.pixels().size());
  mo /= static_cast<double>(out.pixels().size());
  EXPECT_NEAR(mi, mo, 2.0);
}

TEST(GaussianBlur, SmoothsMoreWithLargerSigma) {
  const auto img = jpeg::synthetic_livingroom(64);
  const auto soft = dsp::gaussian_blur_batch(img, 0.8, kExact);
  const auto softer = dsp::gaussian_blur_batch(img, 2.0, kExact);
  // Stronger blur moves further from the original.
  EXPECT_LT(jpeg::psnr(img, softer), jpeg::psnr(img, soft));
}

TEST(GaussianBlur, RealmTracksExactClosely) {
  const auto img = jpeg::synthetic_cameraman(64);
  const auto exact_out = dsp::gaussian_blur_batch(img, 1.2, kExact);
  const auto realm = mult::make_multiplier("realm:m=16,t=8", 16);
  const auto approx_out = dsp::gaussian_blur_batch(img, 1.2, *realm);
  EXPECT_GT(jpeg::psnr(exact_out, approx_out), 36.0);
}

TEST(GaussianBlur, CalmDegradesVersusRealm) {
  const auto img = jpeg::synthetic_cameraman(64);
  const auto exact_out = dsp::gaussian_blur_batch(img, 1.2, kExact);
  const auto realm = mult::make_multiplier("realm:m=16,t=8", 16);
  const auto calm = mult::make_multiplier("calm", 16);
  const double realm_psnr =
      jpeg::psnr(exact_out, dsp::gaussian_blur_batch(img, 1.2, *realm));
  const double calm_psnr =
      jpeg::psnr(exact_out, dsp::gaussian_blur_batch(img, 1.2, *calm));
  EXPECT_GT(realm_psnr, calm_psnr + 5.0);
}

TEST(Sobel, DetectsTheWindowFrameEdges) {
  const auto img = jpeg::synthetic_livingroom(128);
  const auto edges = dsp::sobel_batch(img, kExact);
  // Edge maps are sparse: most pixels near zero, some strong responses.
  int strong = 0, weak = 0;
  for (const auto p : edges.pixels()) {
    if (p > 128) ++strong;
    if (p < 16) ++weak;
  }
  EXPECT_GT(strong, 50);
  EXPECT_GT(weak, static_cast<int>(edges.pixels().size()) / 2);
}

TEST(Sobel, MitchellIsExactOnPowerOfTwoTaps) {
  // Sobel taps are ±1/±2 — powers of two.  Mitchell's approximation is exact
  // whenever one operand's fraction is zero, so cALM reproduces the exact
  // edge map bit-for-bit.  MBM/REALM are *not* exact here: their correction
  // term is positive even at x = 0 (the overcorrection ridge), so they only
  // come close.
  const auto img = jpeg::synthetic_cameraman(64);
  const auto exact_edges = dsp::sobel_batch(img, kExact);
  const auto calm = mult::make_multiplier("calm", 16);
  EXPECT_EQ(dsp::sobel_batch(img, *calm).pixels(), exact_edges.pixels());
  for (const char* spec : {"realm:m=8,t=0", "mbm:t=0"}) {
    const auto mul = mult::make_multiplier(spec, 16);
    const auto edges = dsp::sobel_batch(img, *mul);
    EXPECT_GT(jpeg::psnr(exact_edges, edges), 26.0) << spec;
  }
}

TEST(Convolve, ValidatesArguments) {
  const jpeg::Image img{8, 8};
  EXPECT_THROW((void)dsp::convolve_batch(img, std::vector<double>(9, 0.1), 4, kExact),
               std::invalid_argument);
  EXPECT_THROW((void)dsp::convolve_batch(img, std::vector<double>(8, 0.1), 3, kExact),
               std::invalid_argument);
}
