// Cross-cutting odds and ends: behaviors that matter to users but belong to
// no single module suite.

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "realm/hw/circuits.hpp"
#include "realm/error/render.hpp"
#include "realm/jpeg/codec.hpp"
#include "realm/jpeg/quality.hpp"
#include "realm/jpeg/synthetic.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/rng.hpp"

using namespace realm;

TEST(Misc, RegistryHonorsTheWidthArgument) {
  for (const char* spec : {"accurate", "calm", "realm:m=4,t=0", "drum:k=4"}) {
    for (const int n : {8, 12, 16, 24}) {
      EXPECT_EQ(mult::make_multiplier(spec, n)->width(), n) << spec;
    }
  }
}

TEST(Misc, LogMultipliersAreScaleInvariant) {
  // Doubling one operand exactly doubles the approximation (log-domain
  // designs shift the characteristic only) — away from the tiny-product
  // regime where fraction bits drop.
  num::Xoshiro256 rng{77};
  for (const char* spec : {"calm", "mbm:t=0", "realm:m=8,t=0", "realm:m=16,t=4"}) {
    const auto m = mult::make_multiplier(spec, 16);
    for (int it = 0; it < 20000; ++it) {
      const std::uint64_t a = 256 + rng.below(32768 - 256);  // a and 2a in range
      const std::uint64_t b = 256 + rng.below(65536 - 256);
      ASSERT_EQ(m->multiply(2 * a, b), 2 * m->multiply(a, b))
          << spec << " a=" << a << " b=" << b;
    }
  }
}

TEST(Misc, JpegQualityKnobIsMonotoneInPsnrAndSize) {
  const jpeg::Image img = jpeg::synthetic_cameraman(128);
  double prev_psnr = 0.0;
  std::size_t prev_size = 0;
  for (const int quality : {20, 50, 80}) {
    jpeg::CodecOptions opts;
    opts.quality = quality;
    const auto c = jpeg::encode(img, opts);
    const double p = jpeg::psnr(img, jpeg::decode(c, opts));
    EXPECT_GT(p, prev_psnr) << quality;
    EXPECT_GT(c.size_bytes(), prev_size) << quality;
    prev_psnr = p;
    prev_size = c.size_bytes();
  }
}

TEST(Misc, ProfilePpmEncodesSignInColor) {
  // cALM is all-negative: its PPM must contain blue-ish pixels (R < B) and
  // no red-dominant ones.
  const auto m = mult::make_multiplier("calm", 16);
  const auto pts = err::error_profile(*m, 32, 63);
  const auto path = std::filesystem::temp_directory_path() / "realm_sign.ppm";
  err::write_profile_ppm(pts, 11.2, path.string());
  std::ifstream is{path, std::ios::binary};
  std::string magic;
  int w, h, maxv;
  is >> magic >> w >> h >> maxv;
  is.get();
  std::vector<std::uint8_t> rgb(static_cast<std::size_t>(w) * static_cast<std::size_t>(h) * 3);
  is.read(reinterpret_cast<char*>(rgb.data()), static_cast<std::streamsize>(rgb.size()));
  int blue_dominant = 0;
  for (std::size_t i = 0; i < rgb.size(); i += 3) {
    EXPECT_LE(rgb[i], rgb[i + 2]);  // never red-dominant
    if (rgb[i + 2] > rgb[i]) ++blue_dominant;
  }
  EXPECT_GT(blue_dominant, w * h / 2);
  std::filesystem::remove(path);
}

TEST(Misc, AllTable1CircuitsHavePositiveCalibratedCost) {
  // Every Table I spec must be buildable as a netlist (dispatch coverage).
  for (const auto& spec : mult::table1_specs()) {
    const auto mod = hw::build_circuit(spec, 16);
    EXPECT_GT(mod.gates().size(), 50u) << spec;
    EXPECT_GT(mod.area_um2(), 100.0) << spec;
  }
}
