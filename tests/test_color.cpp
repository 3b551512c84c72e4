#include "realm/jpeg/color.hpp"

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "realm/multipliers/registry.hpp"

using namespace realm;
namespace jp = realm::jpeg;

TEST(Color, PpmRoundTrip) {
  jp::ColorImage img{8, 4};
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 8; ++x) {
      img.set(x, y, static_cast<std::uint8_t>(x * 30), static_cast<std::uint8_t>(y * 60),
              static_cast<std::uint8_t>(x + y));
    }
  }
  const auto path = std::filesystem::temp_directory_path() / "realm_color.ppm";
  jp::write_ppm(img, path.string());
  const jp::ColorImage back = jp::read_ppm(path.string());
  EXPECT_EQ(back.pixels(), img.pixels());
  std::filesystem::remove(path);
}

TEST(Color, YcbcrConversionRoundTripsGrays) {
  // Gray pixels survive conversion exactly (Cb = Cr = 128, Y = gray).
  jp::ColorImage img{16, 16};
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      const auto g = static_cast<std::uint8_t>(x * 16 + y);
      img.set(x, y, g, g, g);
    }
  }
  const auto planes = jp::rgb_to_ycbcr420(img);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      EXPECT_NEAR(planes.cb.at(x, y), 128, 1);
      EXPECT_NEAR(planes.cr.at(x, y), 128, 1);
    }
  }
  const jp::ColorImage back = jp::ycbcr420_to_rgb(planes);
  for (std::size_t i = 0; i < img.pixels().size(); ++i) {
    EXPECT_NEAR(back.pixels()[i], img.pixels()[i], 2);
  }
}

TEST(Color, YcbcrConversionNearLosslessOnSmoothColor) {
  const jp::ColorImage img = jp::synthetic_color_scene(64);
  const jp::ColorImage back = jp::ycbcr420_to_rgb(jp::rgb_to_ycbcr420(img));
  // 4:2:0 subsampling loses chroma detail at edges; overall must stay high.
  EXPECT_GT(jp::psnr_color(img, back), 34.0);
}

TEST(Color, ChromaTableScalesLikeLuma) {
  EXPECT_EQ(jp::scaled_chroma_table(50), jp::base_chrominance_table());
  EXPECT_GT(jp::scaled_chroma_table(25)[0], jp::scaled_chroma_table(75)[0]);
  EXPECT_THROW((void)jp::scaled_chroma_table(0), std::invalid_argument);
}

TEST(Color, CodecRoundTripExactMultiplier) {
  const jp::ColorImage img = jp::synthetic_color_scene(128);
  jp::CodecOptions opts;
  const auto c = jp::encode_color(img, opts);
  const jp::ColorImage rec = jp::decode_color(c, opts);
  EXPECT_GT(jp::psnr_color(img, rec), 30.0);
  EXPECT_LT(c.size_bytes(), img.pixels().size() / 3);  // real compression
}

TEST(Color, RealmTracksAccurateOnColor) {
  const jp::ColorImage img = jp::synthetic_color_scene(128);
  jp::CodecOptions exact;
  const double ref = jp::psnr_color(img, jp::roundtrip_color(img, exact));

  const auto realm16 = mult::make_multiplier("realm:m=16,t=8", 16);
  jp::CodecOptions approx;
  approx.mul = realm16.get();
  const double got = jp::psnr_color(img, jp::roundtrip_color(img, approx));
  EXPECT_GT(got, ref - 1.5);

  const auto calm = mult::make_multiplier("calm", 16);
  jp::CodecOptions worst;
  worst.mul = calm.get();
  EXPECT_LT(jp::psnr_color(img, jp::roundtrip_color(img, worst)), got - 2.0);
}

TEST(Color, RejectsBadDimensions) {
  const jp::ColorImage img{24, 24};  // multiple of 8 but not 16
  EXPECT_THROW((void)jp::encode_color(img, {}), std::invalid_argument);
  jp::ColorImage odd{3, 3};
  EXPECT_THROW((void)jp::rgb_to_ycbcr420(odd), std::invalid_argument);
}

TEST(Color, PpmHeaderClaimingAHugeRasterIsRejected) {
  // The header alone claims a 3·w·h raster no machine can back: read_ppm
  // must refuse before allocating it.
  const auto path = std::filesystem::temp_directory_path() / "realm_huge.ppm";
  {
    std::FILE* f = std::fopen(path.string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "P6\n2147483640 2147483640\n255\n");
    std::fclose(f);
  }
  EXPECT_THROW((void)jp::read_ppm(path.string()), std::runtime_error);

  // One byte short of a small raster is the same error.
  jp::write_ppm(jp::ColorImage{4, 4}, path.string());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 1);
  EXPECT_THROW((void)jp::read_ppm(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}
