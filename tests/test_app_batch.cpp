// Bit-identity contract of the batched JPEG engine (DESIGN.md §12): the
// panel DCT/IDCT, the quantizer panels and the codec must reproduce the
// library's scalar *_reference paths exactly — same bytes, same pixels —
// for every multiplier design and every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "realm/jpeg/codec.hpp"
#include "realm/jpeg/dct.hpp"
#include "realm/jpeg/huffman.hpp"
#include "realm/jpeg/quality.hpp"
#include "realm/jpeg/quant.hpp"
#include "realm/jpeg/synthetic.hpp"
#include "realm/multiplier.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/rng.hpp"
#include "realm/obs/counters.hpp"

using namespace realm;

namespace {

const std::vector<std::string> kSpecs = {"accurate", "realm:m=16,t=8", "mbm:t=0",
                                         "calm", "drum:k=6"};
const std::vector<int> kThreadCounts = {1, 2, 5};

std::vector<std::int16_t> random_blocks(std::size_t n_blocks, std::uint64_t seed) {
  num::Xoshiro256 rng{seed};
  std::vector<std::int16_t> v(n_blocks * 64);
  for (auto& x : v) x = static_cast<std::int16_t>(rng.below(256)) - 128;
  return v;
}

// kSpecs plus every Table II design: the panel passes must match the scalar
// oracle for each design the codec is evaluated with.
std::vector<std::string> panel_specs() {
  std::vector<std::string> specs = kSpecs;
  for (const std::string& s : mult::table2_specs()) {
    if (std::find(specs.begin(), specs.end(), s) == specs.end()) specs.push_back(s);
  }
  return specs;
}

// Blocks over the whole int16 range but -32768: constant +-32767 blocks, a
// +-32767 checkerboard, then uniform values — enough to drive rescale_sat
// into both rails of the 16-bit datapath in either direction.
std::vector<std::int16_t> full_range_blocks(std::size_t n_blocks, std::uint64_t seed) {
  num::Xoshiro256 rng{seed};
  std::vector<std::int16_t> v(n_blocks * 64);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    for (std::size_t i = 0; i < 64; ++i) {
      const std::int16_t checker = (i / 8 + i % 8) % 2 == 0 ? 32767 : -32767;
      const auto uniform =
          static_cast<std::int16_t>(static_cast<int>(rng.below(65535)) - 32767);
      v[b * 64 + i] = b == 0 ? 32767 : b == 1 ? -32767 : b == 2 ? checker : uniform;
    }
  }
  return v;
}

// Forwarding Multiplier that counts the kernel calls an engine issues and
// records the operands of each row range.
class KernelCallCounter final : public Multiplier {
 public:
  struct RowRange {
    std::uint64_t a_fixed, b0;
    std::size_t n;
  };

  explicit KernelCallCounter(const Multiplier& inner) : inner_{&inner} {}
  std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override {
    return inner_->multiply(a, b);
  }
  void multiply_batch(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out,
                      std::size_t n) const override {
    ++batch_calls;
    inner_->multiply_batch(a, b, out, n);
  }
  void multiply_row_batch(std::uint64_t a_fixed, const std::uint64_t* b,
                          std::uint64_t* out, std::size_t n) const override {
    ++row_batch_calls;
    inner_->multiply_row_batch(a_fixed, b, out, n);
  }
  void multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0, std::uint64_t* out,
                          std::size_t n) const override {
    {
      const std::lock_guard<std::mutex> lock{mu_};
      row_ranges.push_back({a_fixed, b0, n});
    }
    inner_->multiply_row_range(a_fixed, b0, out, n);
  }
  std::string name() const override { return inner_->name(); }
  int width() const override { return inner_->width(); }

  mutable std::atomic<std::size_t> batch_calls{0};
  mutable std::atomic<std::size_t> row_batch_calls{0};
  mutable std::mutex mu_;  // guards row_ranges
  mutable std::vector<RowRange> row_ranges;

 private:
  const Multiplier* inner_;
};

// Exact product plus the first operand: a*b + a differs from b*a + b
// whenever a != b.
class NonCommutative final : public Multiplier {
 public:
  std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override {
    return a * b + a;
  }
  std::string name() const override { return "a*b+a"; }
  int width() const override { return 16; }
};

// Five times the exact product: too wide for a DctProducts record.
class FiveTimes final : public Multiplier {
 public:
  std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override {
    return 5 * a * b;
  }
  std::string name() const override { return "5*a*b"; }
  int width() const override { return 16; }
};

// The magnitudes the row ranges of `c` fill: one ascending run of ranges
// from 0 per record slot, the same for each.  Returns the last magnitude.
std::size_t covered_by(const KernelCallCounter& c) {
  std::vector<std::uint64_t> next(jpeg::DctProducts::kRows, 0);
  for (const auto& range : c.row_ranges) {
    for (std::size_t r = 0; r < next.size(); ++r) {
      if (range.a_fixed != jpeg::DctProducts::magnitude(r)) continue;
      EXPECT_EQ(range.b0, next[r]) << "magnitude " << range.a_fixed;
      next[r] = range.b0 + range.n;
    }
  }
  for (const std::uint64_t n : next) EXPECT_EQ(n, next[0]);
  return static_cast<std::size_t>(next[0]) - 1;
}

// A 24×8 stream of three blocks with DC levels +32767, 0 and -32767 and
// first AC levels +32767, -32767 and 0: dequantized at any q they saturate
// to both rails, so a decode's first pass reads |x| = 2^15.
jpeg::Compressed saturating_stream() {
  constexpr int kCat = 15;
  constexpr std::uint32_t kAcSym = kCat;  // run 0, category 15
  std::vector<std::uint64_t> dc_freq(16, 0), ac_freq(256, 0);
  dc_freq[kCat] = 1;
  ac_freq[0] = ac_freq[kAcSym] = 1;  // EOB and one AC symbol
  const auto dc = jpeg::HuffmanCode::from_frequencies(dc_freq);
  const auto ac = jpeg::HuffmanCode::from_frequencies(ac_freq);
  // One's-complement extra bits: 32767 is all ones, -32767 all zeros.
  const std::uint32_t pos = 0x7FFF, neg = 0;
  const std::uint32_t dc_extra[3] = {pos, neg, neg};  // diffs +32767, -32767, -32767
  const std::uint32_t ac_extra[2] = {pos, neg};
  jpeg::BitWriter w;
  for (int b = 0; b < 3; ++b) {
    dc.encode(w, kCat);
    w.put(dc_extra[b], kCat);
    if (b < 2) {
      ac.encode(w, kAcSym);
      w.put(ac_extra[b], kCat);
    }
    ac.encode(w, 0);
  }
  jpeg::Compressed c;
  c.width = 24;
  c.height = 8;
  c.payload = w.finish();
  c.dc_code_lengths = dc.lengths();
  c.ac_code_lengths = ac.lengths();
  return c;
}

}  // namespace

TEST(AppBatch, PanelFdctMatchesScalarReference) {
  // 67 blocks crosses the 32-block panel boundary with a ragged tail.  One
  // -32768 input makes the first pass read the table's last column, 2^15.
  auto blocks = random_blocks(67, 0x5EED);
  blocks[70] = -32768;
  for (const auto& spec : panel_specs()) {
    const auto mul = mult::make_multiplier(spec, 16);
    const auto f = mul->as_function();
    std::vector<std::int16_t> panel_out(blocks.size());
    jpeg::fdct_panel(blocks.data(), panel_out.data(), 67, jpeg::DctProducts{*mul});
    for (std::size_t b = 0; b < 67; ++b) {
      std::array<std::int16_t, 64> in{}, ref{};
      for (std::size_t i = 0; i < 64; ++i) in[i] = blocks[b * 64 + i];
      jpeg::fdct8x8(in, ref, f);
      for (std::size_t i = 0; i < 64; ++i) {
        ASSERT_EQ(panel_out[b * 64 + i], ref[i]) << spec << " block=" << b << " i=" << i;
      }
    }
  }
}

TEST(AppBatch, PanelIdctMatchesScalarReference) {
  // Realistic coefficients: forward-transform random pixel blocks first.
  const auto pixels = random_blocks(33, 0xD1C7);
  const auto mul = mult::make_multiplier("realm:m=16,t=8", 16);
  const auto f = mul->as_function();
  std::vector<std::int16_t> coeffs(pixels.size());
  jpeg::fdct_panel(pixels.data(), coeffs.data(), 33, jpeg::DctProducts{*mul});
  // A -32768 coefficient makes the first pass read the table's last column.
  coeffs[64 + 9] = -32768;

  for (const auto& spec : panel_specs()) {
    const auto m = mult::make_multiplier(spec, 16);
    const auto mf = m->as_function();
    std::vector<std::int16_t> panel_out(coeffs.size());
    jpeg::idct_panel(coeffs.data(), panel_out.data(), 33, jpeg::DctProducts{*m});
    for (std::size_t b = 0; b < 33; ++b) {
      std::array<std::int16_t, 64> in{}, ref{};
      for (std::size_t i = 0; i < 64; ++i) in[i] = coeffs[b * 64 + i];
      jpeg::idct8x8(in, ref, mf);
      for (std::size_t i = 0; i < 64; ++i) {
        ASSERT_EQ(panel_out[b * 64 + i], ref[i]) << spec << " block=" << b << " i=" << i;
      }
    }
  }
}

TEST(AppBatch, PanelTransformsSaturateLikeTheScalarReference) {
  // Full-range inputs push the 64-bit sums past the 16-bit datapath: both
  // transforms must clamp to the same rails as the scalar pass, per design.
  constexpr std::size_t kBlocks = 40;
  const auto blocks = full_range_blocks(kBlocks, 0xF011);
  for (const auto& spec : panel_specs()) {
    const auto mul = mult::make_multiplier(spec, 16);
    const auto f = mul->as_function();
    const jpeg::DctProducts products{*mul};
    for (const bool inverse : {false, true}) {
      std::vector<std::int16_t> panel_out(blocks.size());
      if (inverse) {
        jpeg::idct_panel(blocks.data(), panel_out.data(), kBlocks, products);
      } else {
        jpeg::fdct_panel(blocks.data(), panel_out.data(), kBlocks, products);
      }
      bool hit_hi = false, hit_lo = false;
      for (std::size_t b = 0; b < kBlocks; ++b) {
        std::array<std::int16_t, 64> in{}, ref{};
        for (std::size_t i = 0; i < 64; ++i) in[i] = blocks[b * 64 + i];
        if (inverse) {
          jpeg::idct8x8(in, ref, f);
        } else {
          jpeg::fdct8x8(in, ref, f);
        }
        for (std::size_t i = 0; i < 64; ++i) {
          ASSERT_EQ(panel_out[b * 64 + i], ref[i])
              << spec << " inverse=" << inverse << " block=" << b << " i=" << i;
          hit_hi = hit_hi || ref[i] == 32767;
          hit_lo = hit_lo || ref[i] == -32768;
        }
      }
      EXPECT_TRUE(hit_hi && hit_lo) << spec << " inverse=" << inverse
                                    << ": the inputs must saturate both rails";
    }
  }
}

TEST(AppBatch, DctProductsIssueOneRowRangePerMagnitude) {
  // The table holds one record slot per distinct |c| of the Q12 matrix.
  // Each magnitude's row ranges cover [0, covered()] exactly once, in
  // ascending order, and nothing else reaches the kernels.
  const auto inner = mult::make_multiplier("realm:m=16,t=8", 16);
  KernelCallCounter counter{*inner};
  const jpeg::DctProducts products{counter};
  EXPECT_EQ(products.covered(), jpeg::DctProducts::kMaxMagnitude);
  EXPECT_EQ(covered_by(counter), products.covered());
  const std::array<std::uint64_t, 7> mags = {400, 784, 1138, 1448, 1703, 1892, 2009};
  for (std::size_t r = 0; r < jpeg::DctProducts::kRows; ++r) {
    EXPECT_EQ(jpeg::DctProducts::magnitude(r), mags[r]);
    for (const std::uint64_t x : {0u, 1u, 255u, 32767u, 32768u}) {
      EXPECT_EQ(products.record(x)[r], inner->multiply(mags[r], x)) << r << " x=" << x;
    }
  }
  for (const auto& range : counter.row_ranges) {
    EXPECT_NE(std::find(mags.begin(), mags.end(), range.a_fixed), mags.end())
        << "a_fixed=" << range.a_fixed;
  }
  EXPECT_EQ(counter.row_batch_calls, 0u);
  EXPECT_EQ(counter.batch_calls, 0u);

  // encode() and decode() fill one table each, and roundtrip() one table
  // that it extends for the decode half, at any thread count.  An encode
  // reads only the records of level-shifted pixels and of the first pass's
  // outputs; the exact design's fills at most 1024.
  const auto img = jpeg::synthetic_cameraman(64);
  for (const std::string spec : {"accurate", "realm:m=16,t=8"}) {
    const auto mul = mult::make_multiplier(spec, 16);
    for (const int threads : {1, 4}) {
      jpeg::CodecOptions opts;
      opts.threads = threads;
      KernelCallCounter enc{*mul}, dec{*mul}, both{*mul};
      opts.mul = &enc;
      const auto compressed = jpeg::encode(img, opts);
      opts.mul = &dec;
      const auto decoded = jpeg::decode(compressed, opts);
      opts.mul = &both;
      EXPECT_EQ(jpeg::roundtrip(img, opts).pixels(), decoded.pixels())
          << spec << " threads=" << threads;
      const std::size_t e = covered_by(enc), d = covered_by(dec);
      EXPECT_GE(e, 128u) << spec << " threads=" << threads;
      if (spec == "accurate") {
        EXPECT_LT(e, 1024u) << "threads=" << threads;
      }
      EXPECT_EQ(covered_by(both), std::max(e, d)) << spec << " threads=" << threads;
      for (const KernelCallCounter* c : {&enc, &dec, &both}) {
        EXPECT_EQ(c->row_batch_calls, 0u) << spec << " threads=" << threads;
        EXPECT_EQ(c->batch_calls, 0u) << spec << " threads=" << threads;
      }
    }
  }
}

TEST(AppBatch, DctProductsBuildForEveryTableIDesign) {
  // Every Table I design fits the 28-bit record entries, and its records
  // hold the scalar products with a zero eighth slot.
  for (const auto& spec : mult::table1_specs()) {
    const auto mul = mult::make_multiplier(spec, 16);
    std::unique_ptr<jpeg::DctProducts> products;
    ASSERT_NO_THROW(products = std::make_unique<jpeg::DctProducts>(*mul)) << spec;
    for (const std::uint64_t x : {0u, 1u, 255u, 32767u, 32768u}) {
      const std::uint32_t* rec = products->record(x);
      for (std::size_t r = 0; r < jpeg::DctProducts::kRows; ++r) {
        ASSERT_EQ(rec[r], mul->multiply(jpeg::DctProducts::magnitude(r), x))
            << spec << " r=" << r << " x=" << x;
      }
      ASSERT_EQ(rec[jpeg::DctProducts::kRows], 0u) << spec << " x=" << x;
    }
  }
}

TEST(AppBatch, DctProductsRejectEntriesAbove28Bits) {
  // 5·2009·32768 > 2^28: eight such products could overflow a 32-bit sum.
  // A table that must hold them throws: the full-range one, and the one a
  // decode of saturated coefficients needs.
  const FiveTimes mul;
  EXPECT_THROW(jpeg::DctProducts{mul}, std::invalid_argument);
  jpeg::CodecOptions opts;
  opts.mul = &mul;
  EXPECT_THROW((void)jpeg::decode(saturating_stream(), opts), std::invalid_argument);
  // An encode reads no entry above 2^28 - 1, so it runs exactly.
  const auto img = jpeg::synthetic_cameraman(32);
  jpeg::CodecOptions ref_opts;
  ref_opts.umul = mul.as_function();
  EXPECT_EQ(jpeg::serialize(jpeg::encode(img, opts)),
            jpeg::serialize(jpeg::encode_plane_reference(img, jpeg::scaled_table(50),
                                                         ref_opts)));
}

TEST(AppBatch, BoundedProductTablesMatchTheReference) {
  // Images whose first-pass outputs reach far past the pixel range, and a
  // stream whose coefficients saturate to both rails, which makes a decode
  // cover every magnitude: each design must still read only records its
  // table holds, so bytes and pixels equal the scalar reference's.
  const auto qtable = jpeg::scaled_table(50);
  jpeg::Image checker{64, 64};
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) checker.set(x, y, (x + y) % 2 == 0 ? 0 : 255);
  }
  const jpeg::Image white{64, 64, 255};
  const jpeg::Compressed saturated = saturating_stream();

  const NonCommutative non_commutative;
  const FiveTimes five_times;
  std::vector<std::unique_ptr<Multiplier>> owned;
  std::vector<const Multiplier*> designs = {&non_commutative, &five_times};
  for (const auto& spec : panel_specs()) {
    owned.push_back(mult::make_multiplier(spec, 16));
    designs.push_back(owned.back().get());
  }
  for (const Multiplier* mul : designs) {
    jpeg::CodecOptions opts, ref_opts;
    opts.mul = mul;
    ref_opts.umul = mul->as_function();
    for (const jpeg::Image* img : std::array<const jpeg::Image*, 2>{&checker, &white}) {
      const auto ref = jpeg::encode_plane_reference(*img, qtable, ref_opts);
      EXPECT_EQ(jpeg::serialize(jpeg::encode(*img, opts)), jpeg::serialize(ref))
          << mul->name();
    }
    if (mul == &five_times) continue;  // its full table throws (above)
    EXPECT_EQ(jpeg::decode(saturated, opts).pixels(),
              jpeg::decode_plane_reference(saturated, qtable, ref_opts).pixels())
        << mul->name();
  }
}

TEST(AppBatch, EncodeRejectsLevelsWithoutACategory) {
  // Alternating black and white blocks at quality 100 (q = 1): five times
  // the exact DC swings past ±2^14, so a DC difference needs category 16,
  // which the 16-symbol DC alphabet does not hold.  Both encoders refuse
  // it instead of counting the symbol past the end of the alphabet.
  jpeg::Image blocks{64, 64};
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) blocks.set(x, y, (x / 8 + y / 8) % 2 == 0 ? 255 : 0);
  }
  const FiveTimes mul;
  jpeg::CodecOptions opts, ref_opts;
  opts.quality = ref_opts.quality = 100;
  opts.mul = &mul;
  ref_opts.umul = mul.as_function();
  EXPECT_THROW((void)jpeg::encode(blocks, opts), std::invalid_argument);
  EXPECT_THROW(
      (void)jpeg::encode_plane_reference(blocks, jpeg::scaled_table(100), ref_opts),
      std::invalid_argument);
  // The exact design stays within category 11 on the same image.
  opts.mul = nullptr;
  EXPECT_NO_THROW((void)jpeg::encode(blocks, opts));
}

TEST(AppBatch, PanelTransformsMatchTheReferenceOnZeroRows) {
  // The passes skip a tap whose eight inputs in a block are all zero.  The
  // skip must leave the sums exact: all-zero blocks, DC-only blocks, blocks
  // with zero rows or zero columns (the second pass sees those as rows),
  // one zero row in the last block of a 35-block call, and a design whose
  // products of x = 0 are not zero.
  constexpr std::size_t kBlocks = 35;
  num::Xoshiro256 rng{0x2E05};
  std::vector<std::int16_t> blocks(kBlocks * 64);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const std::uint64_t zero_rows = b < 3 ? 0xFF : rng.below(256);
    const std::uint64_t zero_cols = b < 5 ? 0 : rng.below(256);
    for (std::size_t i = 0; i < 64; ++i) {
      const bool zero = ((zero_rows >> (i / 8)) & 1) != 0 || ((zero_cols >> (i % 8)) & 1) != 0;
      blocks[b * 64 + i] =
          zero ? 0 : static_cast<std::int16_t>(static_cast<int>(rng.below(2048)) - 1024);
    }
  }
  blocks[1 * 64] = 800;   // DC only
  blocks[2 * 64] = -733;  // DC only, negative
  for (std::size_t i = 0; i < 64; ++i) {
    blocks[(kBlocks - 1) * 64 + i] =
        i / 8 == 5 ? 0 : static_cast<std::int16_t>(static_cast<int>(rng.below(256)) - 128);
  }

  const NonCommutative non_commutative;
  std::vector<std::unique_ptr<Multiplier>> owned;
  std::vector<const Multiplier*> designs = {&non_commutative};
  for (const auto& spec : panel_specs()) {
    owned.push_back(mult::make_multiplier(spec, 16));
    designs.push_back(owned.back().get());
  }
  for (const Multiplier* mul : designs) {
    const auto f = mul->as_function();
    const jpeg::DctProducts products{*mul};
    for (const bool inverse : {false, true}) {
      std::vector<std::int16_t> panel_out(blocks.size());
      if (inverse) {
        jpeg::idct_panel(blocks.data(), panel_out.data(), kBlocks, products);
      } else {
        jpeg::fdct_panel(blocks.data(), panel_out.data(), kBlocks, products);
      }
      for (std::size_t b = 0; b < kBlocks; ++b) {
        std::array<std::int16_t, 64> in{}, ref{};
        for (std::size_t i = 0; i < 64; ++i) in[i] = blocks[b * 64 + i];
        if (inverse) {
          jpeg::idct8x8(in, ref, f);
        } else {
          jpeg::fdct8x8(in, ref, f);
        }
        for (std::size_t i = 0; i < 64; ++i) {
          ASSERT_EQ(panel_out[b * 64 + i], ref[i]) << mul->name() << " inverse=" << inverse
                                                   << " block=" << b << " i=" << i;
        }
      }
    }
  }
}

TEST(AppBatch, DctProductsRejectNarrowDesigns) {
  // |x| reaches 2^15, so a 12-bit design cannot fill the table.
  const auto narrow = mult::make_multiplier("realm:m=16,t=4", 12);
  EXPECT_THROW(jpeg::DctProducts{*narrow}, std::invalid_argument);
  const auto img = jpeg::synthetic_cameraman(32);
  jpeg::CodecOptions opts;
  opts.mul = narrow.get();
  EXPECT_THROW((void)jpeg::encode(img, opts), std::invalid_argument);
  EXPECT_THROW((void)jpeg::decode(jpeg::encode(img, {}), opts), std::invalid_argument);
}

TEST(AppBatch, QuantizePanelMatchesScalarForEveryDivisor) {
  // Every q the scaled tables can produce (1..255) against boundary and
  // random coefficients — the reciprocal quantizer must divide exactly.
  num::Xoshiro256 rng{0x0ABC};
  for (int q = 1; q <= 255; ++q) {
    std::array<std::uint16_t, 64> qtable{};
    qtable.fill(static_cast<std::uint16_t>(q));
    std::array<std::int16_t, 64> coeffs{};
    const std::int16_t edge[] = {0,
                                 1,
                                 -1,
                                 static_cast<std::int16_t>(q - 1),
                                 static_cast<std::int16_t>(q),
                                 static_cast<std::int16_t>(q + 1),
                                 static_cast<std::int16_t>(-q),
                                 32767,
                                 -32767,
                                 static_cast<std::int16_t>(-32768)};
    for (std::size_t i = 0; i < 64; ++i) {
      coeffs[i] = i < std::size(edge)
                      ? edge[i]
                      : static_cast<std::int16_t>(rng.below(65535)) - 32767;
    }
    std::array<std::int16_t, 64> levels{};
    jpeg::quantize_panel(coeffs.data(), qtable, levels.data(), 1);
    for (std::size_t i = 0; i < 64; ++i) {
      ASSERT_EQ(levels[i], jpeg::quantize(coeffs[i], qtable[i]))
          << "q=" << q << " coeff=" << coeffs[i];
    }
  }
}

TEST(AppBatch, DequantizePanelMatchesScalar) {
  // Levels over the whole int16 range, its edges included, so the products
  // saturate both rails; 1 block and 33 blocks (past one 32-block shard).
  const auto qtable = jpeg::scaled_table(50);
  num::Xoshiro256 rng{0xDE0};
  for (const std::size_t n_blocks : {std::size_t{1}, std::size_t{33}}) {
    std::vector<std::int16_t> levels(n_blocks * 64);
    for (auto& l : levels) {
      l = static_cast<std::int16_t>(static_cast<int>(rng.below(65536)) - 32768);
    }
    const std::int16_t edge[] = {-32768, -32767, 32767, 0, 1, -1, 100, -100};
    std::copy(std::begin(edge), std::end(edge), levels.begin());

    // The plain saturated product, one level at a time and panel-wide.
    std::vector<std::int16_t> out(levels.size());
    jpeg::dequantize_panel(levels.data(), qtable, out.data(), n_blocks);
    for (std::size_t k = 0; k < levels.size(); ++k) {
      const std::int64_t p = std::int64_t{levels[k]} * qtable[k % 64];
      ASSERT_EQ(out[k], num::sat_signed(p, 16)) << "k=" << k;
      ASSERT_EQ(out[k], jpeg::dequantize(levels[k], qtable[k % 64])) << "k=" << k;
    }
  }
}

TEST(AppBatch, CodecMatchesTheReferenceForANonCommutativeDesign) {
  // Every in-repo design is commutative, so only a design that is not can
  // tell the operands apart: the panel engine must issue each transform
  // product with the operand order of the scalar reference.
  const NonCommutative mul;
  ASSERT_NE(mul.multiply(3, 5), mul.multiply(5, 3));
  const auto qtable = jpeg::scaled_table(50);
  const auto img = jpeg::synthetic_cameraman(64);
  jpeg::CodecOptions ref_opts;
  ref_opts.umul = mul.as_function();
  const auto c = jpeg::encode_plane_reference(img, qtable, ref_opts);
  const auto d_ref = jpeg::decode_plane_reference(c, qtable, ref_opts);
  for (const int threads : {1, 2}) {
    jpeg::CodecOptions opts;
    opts.mul = &mul;
    opts.threads = threads;
    EXPECT_EQ(jpeg::serialize(jpeg::encode(img, opts)), jpeg::serialize(c))
        << "threads=" << threads;
    EXPECT_EQ(jpeg::decode(c, opts).pixels(), d_ref.pixels()) << "threads=" << threads;
  }
}

TEST(AppBatch, JpegBatchedEngineBitIdenticalAcrossSpecsAndThreads) {
  const auto img = jpeg::synthetic_cameraman(64);
  const auto qtable = jpeg::scaled_table(50);
  for (const auto& spec : kSpecs) {
    const auto mul = mult::make_multiplier(spec, 16);
    jpeg::CodecOptions ref_opts;
    ref_opts.quality = 50;
    ref_opts.umul = mul->as_function();
    const auto c_ref = jpeg::encode_plane_reference(img, qtable, ref_opts);
    const auto d_ref = jpeg::decode_plane_reference(c_ref, qtable, ref_opts);
    const double psnr_ref = jpeg::psnr(img, d_ref);

    for (const int threads : kThreadCounts) {
      jpeg::CodecOptions opts;
      opts.quality = 50;
      opts.mul = mul.get();
      opts.threads = threads;
      const auto c = jpeg::encode(img, opts);
      EXPECT_EQ(jpeg::serialize(c), jpeg::serialize(c_ref))
          << spec << " threads=" << threads;
      const auto d = jpeg::decode(c_ref, opts);
      EXPECT_EQ(d.pixels(), d_ref.pixels()) << spec << " threads=" << threads;
      EXPECT_DOUBLE_EQ(jpeg::psnr(img, d), psnr_ref) << spec << " threads=" << threads;
    }
  }
}

TEST(AppBatch, JpegDefaultOptionsRunTheEngineExactly) {
  // CodecOptions{} (no multiplier) is the exact product on the panel engine:
  // same bytes and pixels as the reference with an empty umul.
  const auto img = jpeg::synthetic_lena(64);
  const auto qtable = jpeg::scaled_table(50);
  const jpeg::CodecOptions exact;
  const auto c_ref = jpeg::encode_plane_reference(img, qtable, exact);
  const auto d_ref = jpeg::decode_plane_reference(c_ref, qtable, exact);
  for (const int threads : {1, 2, 4}) {
    jpeg::CodecOptions opts;
    opts.threads = threads;
    const auto dct0 = obs::counter_value(obs::Counter::kDctBlocksBatched);
    const auto c = jpeg::encode(img, opts);
    EXPECT_EQ(obs::counter_value(obs::Counter::kDctBlocksBatched), dct0 + 64)
        << "the default encode must run the panel engine";
    EXPECT_EQ(jpeg::serialize(c), jpeg::serialize(c_ref)) << "threads=" << threads;
    EXPECT_EQ(jpeg::decode(c_ref, opts).pixels(), d_ref.pixels())
        << "threads=" << threads;
  }
}

TEST(AppBatch, JpegRejectsUmulWithoutMul) {
  // umul feeds only the *_reference paths; the engine refuses to ignore it.
  const auto img = jpeg::synthetic_cameraman(32);
  const auto mul = mult::make_multiplier("calm", 16);
  jpeg::CodecOptions umul_only;
  umul_only.umul = mul->as_function();
  EXPECT_THROW((void)jpeg::encode(img, umul_only), std::invalid_argument);
  const auto c = jpeg::encode(img, jpeg::CodecOptions{});
  EXPECT_THROW((void)jpeg::decode(c, umul_only), std::invalid_argument);
  EXPECT_THROW((void)jpeg::roundtrip(img, umul_only), std::invalid_argument);
}

TEST(AppBatch, BatchedPathsIncrementTheirCounters) {
  const auto mul = mult::make_multiplier("realm:m=16,t=8", 16);

  const auto img = jpeg::synthetic_cameraman(32);  // 16 blocks
  jpeg::CodecOptions opts;
  opts.quality = 50;
  opts.mul = mul.get();
  const auto dct0 = obs::counter_value(obs::Counter::kDctBlocksBatched);
  const auto c = jpeg::encode(img, opts);
  EXPECT_EQ(obs::counter_value(obs::Counter::kDctBlocksBatched), dct0 + 16);
  (void)jpeg::decode(c, opts);
  EXPECT_EQ(obs::counter_value(obs::Counter::kDctBlocksBatched), dct0 + 32);
}
