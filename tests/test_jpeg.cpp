#include "realm/jpeg/codec.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "realm/jpeg/dct.hpp"
#include "realm/jpeg/huffman.hpp"
#include "realm/jpeg/quality.hpp"
#include "realm/jpeg/quant.hpp"
#include "realm/jpeg/synthetic.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/rng.hpp"

using namespace realm;
namespace jp = realm::jpeg;

namespace {
const num::UMulFn kExact = [](std::uint64_t a, std::uint64_t b) { return a * b; };
}

TEST(Image, PgmRoundTrip) {
  jp::Image img{16, 8};
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 16; ++x) img.set(x, y, static_cast<std::uint8_t>(x * 16 + y));
  }
  const auto path = std::filesystem::temp_directory_path() / "realm_test.pgm";
  jp::write_pgm(img, path.string());
  const jp::Image back = jp::read_pgm(path.string());
  EXPECT_EQ(back.width(), 16);
  EXPECT_EQ(back.height(), 8);
  EXPECT_EQ(back.pixels(), img.pixels());
  std::filesystem::remove(path);
}

TEST(Image, BoundsChecking) {
  jp::Image img{4, 4};
  EXPECT_THROW((void)img.at(4, 0), std::out_of_range);
  EXPECT_THROW(img.set(0, -1, 0), std::out_of_range);
}

TEST(Dct, MatrixIsOrthonormalInQ12) {
  // C·Cᵀ = I within quantization noise.
  const auto& c = jp::dct_matrix_q12();
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      double dot = 0.0;
      for (int k = 0; k < 8; ++k) {
        dot += static_cast<double>(c[static_cast<std::size_t>(i * 8 + k)]) *
               static_cast<double>(c[static_cast<std::size_t>(j * 8 + k)]);
      }
      dot /= (1 << jp::kDctCoeffBits) * static_cast<double>(1 << jp::kDctCoeffBits);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 2e-3) << i << "," << j;
    }
  }
}

TEST(Dct, MatrixMatchesTheCosineFormula) {
  // c[u][k] = lround(s(u)·cos((2k+1)uπ/16)·2^12), s(0) = √(1/8), else √(2/8).
  const auto& c = jp::dct_matrix_q12();
  const double pi = std::acos(-1.0);
  for (int u = 0; u < 8; ++u) {
    const double s = u == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
    for (int k = 0; k < 8; ++k) {
      const double v = s * std::cos((2 * k + 1) * u * pi / 16.0) * (1 << jp::kDctCoeffBits);
      EXPECT_EQ(c[static_cast<std::size_t>(u * 8 + k)], std::lround(v)) << u << "," << k;
    }
  }
}

TEST(Dct, ConstantBlockConcentratesInDc) {
  std::array<std::int16_t, 64> block{}, out{};
  block.fill(100);
  jp::fdct8x8(block, out, kExact);
  EXPECT_NEAR(out[0], 800, 2);  // DC = 8·mean
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(out[static_cast<std::size_t>(i)], 0, 2);
}

TEST(Dct, ForwardInverseRoundTripIsTight) {
  num::Xoshiro256 rng{31};
  double worst = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    std::array<std::int16_t, 64> in{}, co{}, out{};
    for (auto& v : in) v = static_cast<std::int16_t>(rng.below(256)) - 128;
    jp::fdct8x8(in, co, kExact);
    jp::idct8x8(co, out, kExact);
    for (int i = 0; i < 64; ++i) {
      worst = std::max(worst, std::fabs(static_cast<double>(out[static_cast<std::size_t>(i)] -
                                                            in[static_cast<std::size_t>(i)])));
    }
  }
  // Random noise blocks are the worst case for Q12 coefficient quantization:
  // a few pixels can be off by up to ~10 counts while the RMS stays ~1.
  EXPECT_LE(worst, 12.0);
}

TEST(Dct, ForwardInverseRoundTripRmsIsSmall) {
  num::Xoshiro256 rng{32};
  double err2 = 0.0;
  long count = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::array<std::int16_t, 64> in{}, co{}, out{};
    for (auto& v : in) v = static_cast<std::int16_t>(rng.below(256)) - 128;
    jp::fdct8x8(in, co, kExact);
    jp::idct8x8(co, out, kExact);
    for (int i = 0; i < 64; ++i) {
      const double d = out[static_cast<std::size_t>(i)] - in[static_cast<std::size_t>(i)];
      err2 += d * d;
      ++count;
    }
  }
  EXPECT_LE(std::sqrt(err2 / static_cast<double>(count)), 3.0);
}

TEST(Quant, QualityScalingMatchesLibjpegConvention) {
  const auto q50 = jp::scaled_table(50);
  EXPECT_EQ(q50, jp::base_luminance_table());  // quality 50 = table verbatim
  const auto q100 = jp::scaled_table(100);
  for (const auto v : q100) EXPECT_EQ(v, 1);  // scale 0 clamps to 1
  const auto q25 = jp::scaled_table(25);
  EXPECT_GT(q25[0], q50[0]);  // coarser at lower quality
  EXPECT_THROW((void)jp::scaled_table(0), std::invalid_argument);
  EXPECT_THROW((void)jp::scaled_table(101), std::invalid_argument);
}

TEST(Quant, QuantizeRoundsToNearestSigned) {
  EXPECT_EQ(jp::quantize(33, 16), 2);
  EXPECT_EQ(jp::quantize(39, 16), 2);
  EXPECT_EQ(jp::quantize(40, 16), 3);  // half rounds away
  EXPECT_EQ(jp::quantize(-40, 16), -3);
  EXPECT_EQ(jp::quantize(-39, 16), -2);
  EXPECT_EQ(jp::quantize(0, 16), 0);
}

TEST(Quant, ZigzagIsAPermutationWithKnownPrefix) {
  const auto& zz = jp::zigzag_order();
  std::array<bool, 64> seen{};
  for (const int idx : zz) {
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, 64);
    EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
    seen[static_cast<std::size_t>(idx)] = true;
  }
  // First entries of the JPEG zigzag: (0,0) (0,1) (1,0) (2,0) (1,1) (0,2).
  EXPECT_EQ(zz[0], 0);
  EXPECT_EQ(zz[1], 1);
  EXPECT_EQ(zz[2], 8);
  EXPECT_EQ(zz[3], 16);
  EXPECT_EQ(zz[4], 9);
  EXPECT_EQ(zz[5], 2);
  EXPECT_EQ(zz[63], 63);
}

TEST(Huffman, BitIoRoundTrip) {
  jp::BitWriter w;
  w.put(0b101, 3);
  w.put(0b0110, 4);
  w.put(0b1, 1);
  w.put(0xABCD, 16);
  const auto bytes = w.finish();
  jp::BitReader r{bytes};
  EXPECT_EQ(r.get(3), 0b101u);
  EXPECT_EQ(r.get(4), 0b0110u);
  EXPECT_EQ(r.get(1), 1u);
  EXPECT_EQ(r.get(16), 0xABCDu);
}

TEST(Huffman, CanonicalCodeRoundTripsRandomStreams) {
  num::Xoshiro256 rng{41};
  // Skewed frequencies over 40 symbols.
  std::vector<std::uint64_t> freq(40, 0);
  std::vector<int> stream;
  for (int i = 0; i < 20000; ++i) {
    const int sym = static_cast<int>(rng.below(40) * rng.below(40) / 40);
    ++freq[static_cast<std::size_t>(sym)];
    stream.push_back(sym);
  }
  const auto code = jp::HuffmanCode::from_frequencies(freq);
  jp::BitWriter w;
  for (const int s : stream) code.encode(w, s);
  const auto bytes = w.finish();

  const auto decoder = jp::HuffmanCode::from_lengths(code.lengths());
  jp::BitReader r{bytes};
  for (const int s : stream) ASSERT_EQ(decoder.decode(r), s);
}

TEST(Huffman, CompressesSkewedSources) {
  std::vector<std::uint64_t> freq{1000, 10, 10, 10};
  const auto code = jp::HuffmanCode::from_frequencies(freq);
  EXPECT_EQ(code.lengths()[0], 1);  // dominant symbol gets the shortest code
}

TEST(Huffman, SingleSymbolAlphabet) {
  std::vector<std::uint64_t> freq{0, 42, 0};
  const auto code = jp::HuffmanCode::from_frequencies(freq);
  jp::BitWriter w;
  code.encode(w, 1);
  code.encode(w, 1);
  const auto bytes = w.finish();
  jp::BitReader r{bytes};
  EXPECT_EQ(code.decode(r), 1);
  EXPECT_EQ(code.decode(r), 1);
  EXPECT_THROW(code.encode(w, 0), std::invalid_argument);
}

TEST(Huffman, LookupAndCanonicalDecodeAgree) {
  // Lengths 1..16 plus a second 16 (a complete code): codes up to the
  // lookup width decode through the table, longer ones through the
  // canonical loop.
  std::vector<std::uint8_t> lengths;
  for (int len = 1; len <= 16; ++len) lengths.push_back(static_cast<std::uint8_t>(len));
  lengths.push_back(16);
  const auto code = jp::HuffmanCode::from_lengths(lengths);
  num::Xoshiro256 rng{0x4AFF};
  for (int trial = 0; trial < 50; ++trial) {
    // Random symbols, then one of length 1..8 that ends the stream exactly
    // on a byte boundary, so no padding bits follow the last code.
    std::vector<int> stream;
    std::size_t bits = 0;
    const auto n = static_cast<std::size_t>(1 + rng.below(40));
    for (std::size_t i = 0; i < n; ++i) {
      stream.push_back(static_cast<int>(rng.below(lengths.size())));
      bits += lengths[static_cast<std::size_t>(stream.back())];
    }
    if (bits % 8 != 0) stream.push_back(static_cast<int>(8 - bits % 8) - 1);
    jp::BitWriter w;
    for (const int sym : stream) code.encode(w, sym);
    const auto bytes = w.finish();
    jp::BitReader r{bytes};
    for (const int sym : stream) ASSERT_EQ(code.decode(r), sym) << "trial " << trial;
    EXPECT_THROW((void)code.decode(r), std::runtime_error) << "trial " << trial;
  }
  // A payload that ends one bit before its last code does: 1-bit codes,
  // then a 2-bit code (read through the lookup) or a 14-bit one (read by
  // the canonical loop) that ends one bit into the final byte, which is
  // dropped.
  for (const int last : {1, 13}) {
    const int len = last + 1;
    jp::BitWriter w;
    const int lead = (8 - (len - 1) % 8) % 8;  // bits before the last code
    for (int b = 0; b < lead; ++b) code.encode(w, 0);
    code.encode(w, last);
    auto bytes = w.finish();
    bytes.pop_back();
    jp::BitReader r{bytes};
    for (int b = 0; b < lead; ++b) ASSERT_EQ(code.decode(r), 0) << "last=" << last;
    EXPECT_THROW((void)code.decode(r), std::runtime_error) << "last=" << last;
  }
  // An incomplete code: bits that start no code are rejected.
  const auto partial = jp::HuffmanCode::from_lengths({1, 2});  // 0, 10; 11 unused
  const std::vector<std::uint8_t> ones = {0x7F, 0xFF, 0xFF};
  jp::BitReader r{ones};
  EXPECT_EQ(partial.decode(r), 0);
  EXPECT_THROW((void)partial.decode(r), std::runtime_error);
}

TEST(Codec, ExactMultiplierRoundTripIsHighQuality) {
  const jp::Image img = jp::synthetic_lena(128);
  jp::CodecOptions opts;  // exact multiplier
  const jp::Image rec = jp::roundtrip(img, opts);
  EXPECT_GT(jp::psnr(img, rec), 33.0);
}

namespace {

// FNV-1a over the payload, then the DC and the AC code lengths.
std::uint64_t stream_digest(const jp::Compressed& c) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const auto* bytes : {&c.payload, &c.dc_code_lengths, &c.ac_code_lengths}) {
    for (const std::uint8_t b : *bytes) {
      h ^= b;
      h *= 0x100000001B3ull;
    }
  }
  return h;
}

}  // namespace

TEST(Codec, StreamsArePinned) {
  // The encoded streams of the three Table II images at 512² for three
  // designs.  The reference encoder shares the entropy stage with encode(),
  // so only a pinned digest can catch a wrong bit in the coder itself.
  struct Pin {
    const char* spec;
    std::size_t payload_bytes;
    std::uint64_t digest;
  };
  const std::vector<std::vector<Pin>> pins = {
      {{"accurate", 8191, 0xD158B9393B2E57A3ull},
       {"realm:m=16,t=8", 8437, 0x46C0E920AE940F9Bull},
       {"drum:k=6", 8640, 0x40D329055410A283ull}},
      {{"accurate", 7059, 0xA433420D8A3BF030ull},
       {"realm:m=16,t=8", 7135, 0x6BC5DA686B01BF34ull},
       {"drum:k=6", 7274, 0xB0F121C369826B1Eull}},
      {{"accurate", 8024, 0x3DC9BDE50AC493E5ull},
       {"realm:m=16,t=8", 8110, 0xB15CF1775F4B6472ull},
       {"drum:k=6", 8068, 0xBAA39222DCB269D2ull}}};
  const auto images = jp::table2_images(512);
  ASSERT_EQ(images.size(), pins.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    for (const Pin& pin : pins[i]) {
      const auto mul = mult::make_multiplier(pin.spec, 16);
      jp::CodecOptions opts;
      opts.mul = mul.get();
      const auto c = jp::encode(images[i].image, opts);
      EXPECT_EQ(c.payload.size(), pin.payload_bytes) << images[i].name << " " << pin.spec;
      EXPECT_EQ(stream_digest(c), pin.digest) << images[i].name << " " << pin.spec
                                              << std::hex << " digest=0x"
                                              << stream_digest(c);
      // The decoder reads back the stream it was given.
      EXPECT_EQ(jp::decode(c, opts).pixels(),
                jp::roundtrip(images[i].image, opts).pixels())
          << images[i].name << " " << pin.spec;
    }
  }
}

TEST(Codec, BitstreamIsActuallyCompressed) {
  const jp::Image img = jp::synthetic_livingroom(128);
  const auto c = jp::encode(img, {});
  EXPECT_LT(c.size_bytes(), img.pixels().size() / 2);
  EXPECT_GT(c.size_bytes(), 100u);
}

TEST(Codec, DecodeIsDeterministic) {
  const jp::Image img = jp::synthetic_cameraman(64);
  const auto c = jp::encode(img, {});
  const jp::Image a = jp::decode(c, {});
  const jp::Image b = jp::decode(c, {});
  EXPECT_EQ(a.pixels(), b.pixels());
}

TEST(Codec, RequiresMultipleOf8Dimensions) {
  const jp::Image img{12, 8};
  EXPECT_THROW((void)jp::encode(img, {}), std::invalid_argument);
}

TEST(Codec, RealmTracksAccurateWithinOneDb) {
  const jp::Image img = jp::synthetic_lena(128);
  jp::CodecOptions exact_opts;
  const double ref = jp::psnr(img, jp::roundtrip(img, exact_opts));

  const auto mul = mult::make_multiplier("realm:m=16,t=8", 16);
  jp::CodecOptions opts;
  opts.mul = mul.get();
  const double got = jp::psnr(img, jp::roundtrip(img, opts));
  EXPECT_GT(got, ref - 1.2);
}

TEST(Codec, CalmDegradesQualityMarkedly) {
  const jp::Image img = jp::synthetic_lena(128);
  jp::CodecOptions exact_opts;
  const double ref = jp::psnr(img, jp::roundtrip(img, exact_opts));
  const auto mul = mult::make_multiplier("calm", 16);
  jp::CodecOptions opts;
  opts.mul = mul.get();
  EXPECT_LT(jp::psnr(img, jp::roundtrip(img, opts)), ref - 2.0);
}

TEST(Synthetic, ImagesAreDeterministicAndFullRange) {
  const jp::Image a = jp::synthetic_cameraman(64);
  const jp::Image b = jp::synthetic_cameraman(64);
  EXPECT_EQ(a.pixels(), b.pixels());
  for (const auto& ni : jp::table2_images(64)) {
    int lo = 255, hi = 0;
    for (const auto p : ni.image.pixels()) {
      lo = std::min<int>(lo, p);
      hi = std::max<int>(hi, p);
    }
    EXPECT_LT(lo, 64) << ni.name;   // real shadows
    EXPECT_GT(hi, 180) << ni.name;  // real highlights
  }
}

TEST(Quality, PsnrProperties) {
  jp::Image a{8, 8, 100};
  EXPECT_TRUE(std::isinf(jp::psnr(a, a)));
  jp::Image b = a;
  b.set(0, 0, 110);
  const double m = jp::mse(a, b);
  EXPECT_NEAR(m, 100.0 / 64.0, 1e-12);
  EXPECT_NEAR(jp::psnr(a, b), 10.0 * std::log10(255.0 * 255.0 / m), 1e-9);
  jp::Image c{4, 4};
  EXPECT_THROW((void)jp::mse(a, c), std::invalid_argument);
}

TEST(Quality, MseIsTheExactSumOfSquares) {
  // mse() and psnr() equal a double accumulation of d², bit for bit.
  const auto double_mse = [](const jp::Image& a, const jp::Image& b) {
    double acc = 0.0;
    for (std::size_t i = 0; i < a.pixels().size(); ++i) {
      const double d =
          static_cast<double>(a.pixels()[i]) - static_cast<double>(b.pixels()[i]);
      acc += d * d;
    }
    return acc / static_cast<double>(a.pixels().size());
  };
  num::Xoshiro256 rng{0x35E};
  for (const int size : {8, 200, 512}) {
    jp::Image a{size, size}, b{size, size};
    for (auto& p : a.pixels()) p = static_cast<std::uint8_t>(rng.below(256));
    for (auto& p : b.pixels()) p = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_EQ(jp::mse(a, b), double_mse(a, b)) << size;
    EXPECT_EQ(jp::psnr(a, b), 10.0 * std::log10(255.0 * 255.0 / double_mse(a, b)))
        << size;
    EXPECT_EQ(jp::mse(a, a), 0.0);
    EXPECT_TRUE(std::isinf(jp::psnr(a, a)));
  }
  // The largest sum a 2048² pair can reach: 2^22 · 255², still exact.
  const jp::Image black{2048, 2048, 0}, white{2048, 2048, 255};
  EXPECT_EQ(jp::mse(black, white), 255.0 * 255.0);
  EXPECT_EQ(jp::mse(black, white), double_mse(black, white));
  EXPECT_EQ(jp::psnr(black, white), 0.0);
}

TEST(Bitstream, SerializeRoundTrips) {
  const jp::Image img = jp::synthetic_cameraman(64);
  const auto c = jp::encode(img, {});
  const auto blob = jp::serialize(c);
  const auto back = jp::deserialize(blob);
  EXPECT_EQ(back.width, c.width);
  EXPECT_EQ(back.height, c.height);
  EXPECT_EQ(back.quality, c.quality);
  EXPECT_EQ(back.payload, c.payload);
  EXPECT_EQ(back.dc_code_lengths, c.dc_code_lengths);
  EXPECT_EQ(back.ac_code_lengths, c.ac_code_lengths);
  // Decoding the deserialized stream reproduces the image bit-for-bit.
  EXPECT_EQ(jp::decode(back, {}).pixels(), jp::decode(c, {}).pixels());
}

TEST(Bitstream, SizeBytesIsTheSerializedLength) {
  // size_bytes() is the length of the blob write_compressed() writes,
  // header and length prefixes included.
  EXPECT_EQ(jp::Compressed{}.size_bytes(), jp::serialize(jp::Compressed{}).size());
  for (const int quality : {10, 50, 90}) {
    jp::CodecOptions opts;
    opts.quality = quality;
    const auto c = jp::encode(jp::synthetic_livingroom(64), opts);
    EXPECT_EQ(c.size_bytes(), jp::serialize(c).size()) << "quality=" << quality;
  }
}

TEST(Bitstream, HostileCodeLengthsAreRejected) {
  // Stored code lengths index the decoder's per-length tables: lengths
  // above 16, over-subscribed sets and alphabets the encoder never writes
  // must be rejected before anything is sized from them.
  const auto c = jp::encode(jp::synthetic_cameraman(32), {});
  ASSERT_EQ(c.dc_code_lengths.size(), 16u);
  ASSERT_EQ(c.ac_code_lengths.size(), 256u);
  for (const std::uint8_t len : std::vector<std::uint8_t>{17, 40, 255}) {
    auto bad = c;
    bad.dc_code_lengths[3] = len;
    EXPECT_THROW((void)jp::decode(bad, {}), std::runtime_error) << "length " << int{len};
    bad = c;
    bad.ac_code_lengths[200] = len;
    EXPECT_THROW((void)jp::decode(bad, {}), std::runtime_error) << "length " << int{len};
    EXPECT_THROW((void)jp::HuffmanCode::from_lengths({std::uint8_t{1}, len}),
                 std::runtime_error);
  }
  auto over = c;
  over.dc_code_lengths.assign(16, 1);  // sixteen 1-bit codes
  EXPECT_THROW((void)jp::decode(over, {}), std::runtime_error);
  EXPECT_THROW((void)jp::HuffmanCode::from_lengths({1, 2, 2, 2}), std::runtime_error);
  auto wide = c;
  wide.dc_code_lengths.push_back(0);  // a 17-symbol DC alphabet
  EXPECT_THROW((void)jp::decode(wide, {}), std::runtime_error);
  wide = c;
  wide.ac_code_lengths.pop_back();
  EXPECT_THROW((void)jp::decode(wide, {}), std::runtime_error);
  // A complete 16-bit-limited set is accepted.
  EXPECT_NO_THROW((void)jp::HuffmanCode::from_lengths({1, 2, 3, 3}));
}

TEST(Bitstream, FileRoundTripAndValidation) {
  const jp::Image img = jp::synthetic_lena(64);
  const auto c = jp::encode(img, {});
  const auto path = std::filesystem::temp_directory_path() / "realm_stream.rjpg";
  jp::write_compressed(c, path.string());
  const auto back = jp::read_compressed(path.string());
  EXPECT_EQ(jp::decode(back, {}).pixels(), jp::decode(c, {}).pixels());
  std::filesystem::remove(path);

  // Corruption is rejected loudly.
  auto blob = jp::serialize(c);
  blob[0] ^= 0xFF;  // magic
  EXPECT_THROW((void)jp::deserialize(blob), std::runtime_error);
  auto truncated = jp::serialize(c);
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW((void)jp::deserialize(truncated), std::runtime_error);
  EXPECT_THROW((void)jp::deserialize({}), std::runtime_error);
}

namespace {

// Side length the parsers must refuse without allocating: a multiple of 8
// that fits int, whose w·h raster (4.6e18 bytes) no machine can back.
constexpr std::uint32_t kHugeSide = 2147483640;

void put_le32(std::vector<std::uint8_t>& blob, std::size_t pos, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    blob[pos + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

TEST(Bitstream, HeaderClaimingMoreBlocksThanThePayloadIsRejected) {
  // A real 16×16 stream whose header is rewritten to claim a huge image:
  // the header is plausible, but its few payload bytes cannot back
  // 2.7e8² blocks, so decode must refuse before allocating their levels.
  const auto c = jp::encode(jp::synthetic_cameraman(16), {});
  auto blob = jp::serialize(c);
  put_le32(blob, 4, kHugeSide);  // width
  put_le32(blob, 8, kHugeSide);  // height
  const auto huge = jp::deserialize(blob);
  EXPECT_THROW((void)jp::decode(huge, {}), std::runtime_error);
}

TEST(Image, PgmHeaderClaimingAHugeRasterIsRejected) {
  const auto path = std::filesystem::temp_directory_path() / "realm_huge.pgm";
  {
    std::FILE* f = std::fopen(path.string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "P5\n%u %u\n255\n", kHugeSide, kHugeSide);
    std::fclose(f);
  }
  EXPECT_THROW((void)jp::read_pgm(path.string()), std::runtime_error);

  // One byte short of a small raster is the same error.
  jp::write_pgm(jp::Image{8, 8, 7}, path.string());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 1);
  EXPECT_THROW((void)jp::read_pgm(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}
