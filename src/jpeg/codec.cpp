#include "realm/jpeg/codec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "realm/jpeg/dct.hpp"
#include "realm/jpeg/huffman.hpp"
#include "realm/jpeg/quant.hpp"
#include "realm/multiplier.hpp"
#include "realm/multipliers/accurate.hpp"
#include "realm/numeric/thread_pool.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/trace.hpp"

namespace realm::jpeg {
namespace {

// JPEG-style magnitude category: number of bits to represent |v|.
int category(int v) {
  return static_cast<int>(std::bit_width(static_cast<unsigned>(v < 0 ? -v : v)));
}

// JPEG variable-length integer: negative values are stored one's-complement.
std::uint32_t vli_bits(int v, int cat) {
  return v >= 0 ? static_cast<std::uint32_t>(v)
                : static_cast<std::uint32_t>(v + (1 << cat) - 1);
}

int vli_decode(std::uint32_t bits, int cat) {
  if (cat == 0) return 0;
  const auto half = std::uint32_t{1} << (cat - 1);
  return bits >= half ? static_cast<int>(bits)
                      : static_cast<int>(bits) - ((1 << cat) - 1);
}

// Symbol alphabets: DC = category (0..15); AC = (run << 4) | category plus
// the JPEG EOB (0x00) and ZRL (0xF0) escapes.
constexpr std::size_t kDcSymbols = 16;
constexpr std::size_t kAcSymbols = 256;
constexpr int kEob = 0x00;
constexpr int kZrl = 0xF0;
constexpr int kMaxAcCategory = 15;

// A level of -32768, or a DC difference of 2^15 or more, has category 16,
// which neither alphabet holds.  Only a design whose transform outputs
// reach the 16-bit rails produces one.
[[noreturn]] void throw_category_overflow() {
  throw std::invalid_argument(
      "encode: a quantized level or DC difference needs category 16; the coder's "
      "alphabets stop at 15");
}

// One entropy token: a Huffman symbol (sym >= 0 is a DC category, sym < 0
// the AC symbol -sym - 1) followed by the low `bits` bits of `extra`.
struct Token {
  int sym;
  std::uint32_t extra;
  int bits;
};

// Every block codes its DC and then an EOB or a last nonzero AC level.
constexpr std::size_t kMinTokensPerBlock = 2;

// Level-shifted pixels lie in [-128, 127]: the bound on the first-pass
// inputs of the encoder's forward transforms.
constexpr std::size_t kPixelBound = 128;

// Fixed shard granularity for the batched engine's parallel block passes.
// The shard grid depends only on the block count — never the thread count —
// and every shard writes its own block-index range, so encoded bytes and
// decoded pixels are invariant to the parallelism actually achieved (the
// MC / packed-sim sharding discipline).
constexpr std::size_t kCodecShardBlocks = 32;

// The design the panel engine runs: opts.mul, or the exact product when it
// is unset.  `umul` drives only the *_reference paths, so a caller that set
// it alone would silently get exact arithmetic here; that is rejected.
const Multiplier& engine_mul(const CodecOptions& opts) {
  if (opts.mul != nullptr) return *opts.mul;
  if (opts.umul) {
    throw std::invalid_argument(
        "jpeg codec: CodecOptions::umul is read only by the *_reference paths; "
        "set CodecOptions::mul");
  }
  static const mult::AccurateMultiplier exact{16};
  return exact;
}

void check_dimensions(const Image& img) {
  if (img.width() % 8 != 0 || img.height() % 8 != 0) {
    throw std::invalid_argument("encode: dimensions must be multiples of 8");
  }
}

// Offset of block `bi`'s top-left pixel in a plane `width` pixels wide with
// `bw` blocks per block row.
std::size_t block_offset(std::size_t bi, std::size_t bw, std::size_t width) {
  return (bi / bw) * 8 * width + (bi % bw) * 8;
}

// The one bounds check of a shard's row copies: blocks are in raster order,
// so the shard stays inside the plane when the last row of its last block
// does.
void check_shard_bounds(const Image& img, std::size_t bw, std::size_t last_block) {
  const auto width = static_cast<std::size_t>(img.width());
  if (block_offset(last_block, bw, width) + 7 * width + 8 > img.pixels().size()) {
    throw std::out_of_range("jpeg codec: block outside the plane");
  }
}

num::UMulFn effective_mul(const CodecOptions& opts) {
  if (opts.umul) return opts.umul;
  return [](std::uint64_t a, std::uint64_t b) { return a * b; };
}

void forward_block(const Image& img, int bx, int by, const num::UMulFn& mul,
                   const std::array<std::uint16_t, 64>& qtable, std::int16_t* levels) {
  std::array<std::int16_t, 64> block{};
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      block[static_cast<std::size_t>(y * 8 + x)] =
          static_cast<std::int16_t>(img.at(bx + x, by + y) - 128);
    }
  }
  std::array<std::int16_t, 64> coeffs{};
  fdct8x8(block, coeffs, mul);
  for (std::size_t i = 0; i < 64; ++i) {
    levels[i] = quantize(coeffs[i], qtable[i]);
  }
}

// Entropy stage shared verbatim by the reference and batched encoders: the
// two engines differ only in how the quantized `levels` array is produced,
// so byte-identity of the bitstream reduces to bit-identity of the levels.
Compressed entropy_encode(const Image& img, const std::vector<std::int16_t>& levels) {
  const auto& zz = zigzag_order();
  const std::size_t n_blocks = levels.size() / 64;

  std::vector<Token> tokens;
  tokens.reserve(n_blocks * kMinTokensPerBlock);
  std::vector<std::uint64_t> dc_freq(kDcSymbols, 0);
  std::vector<std::uint64_t> ac_freq(kAcSymbols, 0);
  int prev_dc = 0;
  {
    REALM_TRACE_SCOPE("jpeg/encode/tokenize");
    for (std::size_t bi = 0; bi < n_blocks; ++bi) {
      const std::int16_t* lv = levels.data() + bi * 64;
      const int dc = lv[0];
      const int diff = dc - prev_dc;
      prev_dc = dc;
      const int dcat = category(diff);
      if (dcat >= static_cast<int>(kDcSymbols)) throw_category_overflow();
      tokens.push_back({dcat, vli_bits(diff, dcat), dcat});
      ++dc_freq[static_cast<std::size_t>(dcat)];

      // Bit i set where zigzag position i holds a nonzero AC level; each
      // one is coded after the run of zeros since the previous one.
      std::uint64_t nonzero = 0;
      for (std::size_t i = 1; i < 64; ++i) {
        nonzero |= std::uint64_t{lv[zz[i]] != 0} << i;
      }
      int prev = 0;
      for (; nonzero != 0; nonzero &= nonzero - 1) {
        const int i = std::countr_zero(nonzero);
        int run = i - prev - 1;
        for (; run >= 16; run -= 16) {
          tokens.push_back({-kZrl - 1, 0, 0});  // negative marks AC symbol
          ++ac_freq[kZrl];
        }
        const int v = lv[zz[static_cast<std::size_t>(i)]];
        const int cat = category(v);
        if (cat > kMaxAcCategory) throw_category_overflow();
        const int sym = (run << 4) | cat;
        tokens.push_back({-sym - 1, vli_bits(v, cat), cat});
        ++ac_freq[static_cast<std::size_t>(sym)];
        prev = i;
      }
      if (prev < 63) {
        tokens.push_back({-kEob - 1, 0, 0});
        ++ac_freq[kEob];
      }
    }
  }
  obs::counter_add(obs::Counter::kJpegBlocksEncoded, n_blocks);

  // Huffman table derivation from the gathered statistics.
  std::optional<HuffmanCode> dc_built, ac_built;
  {
    REALM_TRACE_SCOPE("jpeg/encode/huffman");
    dc_built.emplace(HuffmanCode::from_frequencies(dc_freq));
    ac_built.emplace(HuffmanCode::from_frequencies(ac_freq));
  }
  const HuffmanCode& dc_code = *dc_built;
  const HuffmanCode& ac_code = *ac_built;

  BitWriter w;
  {
    REALM_TRACE_SCOPE("jpeg/encode/emit");
    for (const Token& t : tokens) {
      if (t.sym >= 0) {
        dc_code.encode(w, t.sym);
      } else {
        ac_code.encode(w, -t.sym - 1);
      }
      if (t.bits > 0) w.put(t.extra, t.bits);
    }
  }

  Compressed out;
  out.width = img.width();
  out.height = img.height();
  out.payload = w.finish();
  out.dc_code_lengths = dc_code.lengths();
  out.ac_code_lengths = ac_code.lengths();
  return out;
}

// Serial bitstream parse into quantized levels, block-major.  Shared by both
// decoders; entropy decoding is inherently sequential (DC prediction plus a
// single bit cursor), the arithmetic downstream of it is not.
std::vector<std::int16_t> parse_levels(const Compressed& c) {
  REALM_TRACE_SCOPE("jpeg/decode/parse");
  const auto& zz = zigzag_order();
  // The alphabets entropy_encode writes.  A wider DC alphabet would admit
  // categories whose values do not fit the decoder's arithmetic.
  if (c.dc_code_lengths.size() != kDcSymbols || c.ac_code_lengths.size() != kAcSymbols) {
    throw std::runtime_error(
        "decode: Huffman alphabets must hold 16 DC and 256 AC symbols");
  }
  const HuffmanCode dc_code = HuffmanCode::from_lengths(c.dc_code_lengths);
  const HuffmanCode ac_code = HuffmanCode::from_lengths(c.ac_code_lengths);
  const std::size_t n_blocks = static_cast<std::size_t>(c.width / 8) *
                               static_cast<std::size_t>(c.height / 8);
  // Every block decodes at least two Huffman symbols (DC, then an AC symbol
  // or EOB) of at least one bit each, so a payload of P bytes backs at most
  // 4·P blocks.  Checked before the levels are allocated, so a header that
  // claims a huge image cannot make the decoder commit memory for it.
  if (n_blocks > 4 * c.payload.size()) {
    throw std::runtime_error("decode: payload too short for the image dimensions");
  }
  std::vector<std::int16_t> levels(n_blocks * 64, 0);
  BitReader r{c.payload};
  int prev_dc = 0;
  for (std::size_t bi = 0; bi < n_blocks; ++bi) {
    std::int16_t* lv = levels.data() + bi * 64;
    const int dcat = dc_code.decode(r);
    const int diff = vli_decode(dcat > 0 ? r.get(dcat) : 0, dcat);
    prev_dc += diff;
    lv[0] = static_cast<std::int16_t>(prev_dc);

    int i = 1;
    while (i < 64) {
      const int sym = ac_code.decode(r);
      if (sym == kEob) break;
      if (sym == kZrl) {
        i += 16;
        continue;
      }
      const int run = sym >> 4;
      const int cat = sym & 0xF;
      i += run;
      if (i >= 64) throw std::runtime_error("decode: AC index overflow");
      lv[zz[static_cast<std::size_t>(i)]] =
          static_cast<std::int16_t>(vli_decode(cat > 0 ? r.get(cat) : 0, cat));
      ++i;
    }
  }
  return levels;
}

void inverse_block(const std::int16_t* levels, const std::array<std::uint16_t, 64>& qtable,
                   const num::UMulFn& mul, Image& img, int bx, int by) {
  std::array<std::int16_t, 64> coeffs{};
  for (std::size_t i = 0; i < 64; ++i) coeffs[i] = dequantize(levels[i], qtable[i]);
  std::array<std::int16_t, 64> pixels{};
  idct8x8(coeffs, pixels, mul);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      const int v = pixels[static_cast<std::size_t>(y * 8 + x)] + 128;
      img.set(bx + x, by + y, static_cast<std::uint8_t>(std::clamp(v, 0, 255)));
    }
  }
}

// The bodies of encode() and decode() over a products table the caller
// built, so that roundtrip() builds one table for both.  The caller has
// checked `img`'s dimensions, parsed the levels for decode_with, covered the
// inputs in `products` and opened the jpeg/encode or jpeg/decode span.
Compressed encode_with(const Image& img, const std::array<std::uint16_t, 64>& qtable,
                       const CodecOptions& opts, const DctProducts& products) {
  const auto width = static_cast<std::size_t>(img.width());
  const std::size_t bw = width / 8;
  const std::size_t n_blocks = bw * static_cast<std::size_t>(img.height() / 8);
  std::vector<std::int16_t> levels(n_blocks * 64);
  {
    REALM_TRACE_SCOPE("jpeg/encode/transform_batched");
    const std::size_t shards = (n_blocks + kCodecShardBlocks - 1) / kCodecShardBlocks;
    num::ThreadPool::global().run(
        shards, opts.threads, [&](std::size_t si) {
          REALM_TRACE_SCOPE("jpeg/encode/shard");
          const std::size_t b0 = si * kCodecShardBlocks;
          const std::size_t nb = std::min(kCodecShardBlocks, n_blocks - b0);
          std::int16_t panel[kCodecShardBlocks * 64];
          std::int16_t coeffs[kCodecShardBlocks * 64];
          check_shard_bounds(img, bw, b0 + nb - 1);
          const std::uint8_t* px = img.pixels().data();
          for (std::size_t b = 0; b < nb; ++b) {
            const std::uint8_t* src = px + block_offset(b0 + b, bw, width);
            for (std::size_t y = 0; y < 8; ++y, src += width) {
              for (std::size_t x = 0; x < 8; ++x) {
                panel[b * 64 + y * 8 + x] = static_cast<std::int16_t>(src[x] - 128);
              }
            }
          }
          fdct_panel(panel, coeffs, nb, products);
          quantize_panel(coeffs, qtable, levels.data() + b0 * 64, nb);
        });
  }
  Compressed out = entropy_encode(img, levels);
  out.quality = opts.quality;
  return out;
}

// The largest |coefficient| dequantize_panel makes of `levels`: the bound
// on the first-pass inputs of the decode's inverse transforms.  One max
// scan over the 64 positions, then each position's peak |level| times its
// q, saturated like dequantize().
std::size_t dequantized_bound(const std::vector<std::int16_t>& levels,
                              const std::array<std::uint16_t, 64>& qtable) {
  std::array<std::uint16_t, 64> peak{};
  for (std::size_t b = 0; b < levels.size(); b += 64) {
    for (std::size_t i = 0; i < 64; ++i) {
      const int v = levels[b + i];
      peak[i] = std::max(peak[i], static_cast<std::uint16_t>(v < 0 ? -v : v));
    }
  }
  std::size_t bound = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    bound = std::max(bound, std::size_t{peak[i]} * qtable[i]);
  }
  return std::min(bound, DctProducts::kMaxMagnitude);
}

Image decode_with(const Compressed& c, const std::array<std::uint16_t, 64>& qtable,
                  const std::vector<std::int16_t>& levels, const CodecOptions& opts,
                  const DctProducts& products) {
  Image img{c.width, c.height};
  const auto width = static_cast<std::size_t>(c.width);
  const std::size_t bw = width / 8;
  const std::size_t n_blocks = levels.size() / 64;
  {
    REALM_TRACE_SCOPE("jpeg/decode/inverse_batched");
    const std::size_t shards = (n_blocks + kCodecShardBlocks - 1) / kCodecShardBlocks;
    num::ThreadPool::global().run(
        shards, opts.threads, [&](std::size_t si) {
          REALM_TRACE_SCOPE("jpeg/decode/shard");
          const std::size_t b0 = si * kCodecShardBlocks;
          const std::size_t nb = std::min(kCodecShardBlocks, n_blocks - b0);
          std::int16_t coeffs[kCodecShardBlocks * 64];
          std::int16_t pixels[kCodecShardBlocks * 64];
          dequantize_panel(levels.data() + b0 * 64, qtable, coeffs, nb);
          idct_panel(coeffs, pixels, nb, products);
          check_shard_bounds(img, bw, b0 + nb - 1);
          std::uint8_t* px = img.pixels().data();
          for (std::size_t b = 0; b < nb; ++b) {
            std::uint8_t* dst = px + block_offset(b0 + b, bw, width);
            for (std::size_t y = 0; y < 8; ++y, dst += width) {
              for (std::size_t x = 0; x < 8; ++x) {
                const int v = pixels[b * 64 + y * 8 + x] + 128;
                dst[x] = static_cast<std::uint8_t>(std::clamp(v, 0, 255));
              }
            }
          }
        });
  }
  obs::counter_add(obs::Counter::kJpegBlocksDecoded, n_blocks);
  return img;
}

}  // namespace

std::size_t Compressed::size_bytes() const noexcept {
  // serialize()'s layout: magic, width, height and quality, then each of
  // the three byte strings behind its u32 length.
  return 4 * 4 + 3 * 4 + dc_code_lengths.size() + ac_code_lengths.size() + payload.size();
}

Compressed encode_plane_reference(const Image& img,
                                  const std::array<std::uint16_t, 64>& qtable,
                                  const CodecOptions& opts) {
  check_dimensions(img);
  REALM_TRACE_SCOPE("jpeg/encode");
  const num::UMulFn mul = effective_mul(opts);
  const std::size_t n_blocks = static_cast<std::size_t>(img.width() / 8) *
                               static_cast<std::size_t>(img.height() / 8);
  std::vector<std::int16_t> levels(n_blocks * 64);
  {
    REALM_TRACE_SCOPE("jpeg/encode/transform");
    std::size_t bi = 0;
    for (int by = 0; by < img.height(); by += 8) {
      for (int bx = 0; bx < img.width(); bx += 8, ++bi) {
        forward_block(img, bx, by, mul, qtable, levels.data() + bi * 64);
      }
    }
  }
  Compressed out = entropy_encode(img, levels);
  out.quality = opts.quality;
  return out;
}

Image decode_plane_reference(const Compressed& c,
                             const std::array<std::uint16_t, 64>& qtable,
                             const CodecOptions& opts) {
  REALM_TRACE_SCOPE("jpeg/decode");
  const num::UMulFn mul = effective_mul(opts);
  const std::vector<std::int16_t> levels = parse_levels(c);

  Image img{c.width, c.height};
  const int bw = c.width / 8;
  const std::size_t n_blocks = levels.size() / 64;
  {
    REALM_TRACE_SCOPE("jpeg/decode/inverse");
    for (std::size_t bi = 0; bi < n_blocks; ++bi) {
      const int bx = static_cast<int>(bi % static_cast<std::size_t>(bw)) * 8;
      const int by = static_cast<int>(bi / static_cast<std::size_t>(bw)) * 8;
      inverse_block(levels.data() + bi * 64, qtable, mul, img, bx, by);
    }
  }
  obs::counter_add(obs::Counter::kJpegBlocksDecoded, n_blocks);
  return img;
}

Compressed encode(const Image& img, const CodecOptions& opts) {
  const std::array<std::uint16_t, 64> qtable = scaled_table(opts.quality);
  const Multiplier& mul = engine_mul(opts);
  check_dimensions(img);
  REALM_TRACE_SCOPE("jpeg/encode");
  const DctProducts products = [&] {
    REALM_TRACE_SCOPE("jpeg/encode/products");
    return DctProducts{mul, kPixelBound};
  }();
  return encode_with(img, qtable, opts, products);
}

Image decode(const Compressed& c, const CodecOptions& opts) {
  const Multiplier& mul = engine_mul(opts);
  REALM_TRACE_SCOPE("jpeg/decode");
  const std::array<std::uint16_t, 64> qtable = scaled_table(c.quality);
  const std::vector<std::int16_t> levels = parse_levels(c);
  const DctProducts products = [&] {
    REALM_TRACE_SCOPE("jpeg/decode/products");
    return DctProducts{mul, dequantized_bound(levels, qtable)};
  }();
  return decode_with(c, qtable, levels, opts, products);
}

Image roundtrip(const Image& img, const CodecOptions& opts) {
  const std::array<std::uint16_t, 64> qtable = scaled_table(opts.quality);
  const Multiplier& mul = engine_mul(opts);
  check_dimensions(img);
  DctProducts products = [&] {
    REALM_TRACE_SCOPE("jpeg/roundtrip/products");
    return DctProducts{mul, kPixelBound};
  }();
  const Compressed c = [&] {
    REALM_TRACE_SCOPE("jpeg/encode");
    return encode_with(img, qtable, opts, products);
  }();
  REALM_TRACE_SCOPE("jpeg/decode");
  const std::vector<std::int16_t> levels = parse_levels(c);
  {
    REALM_TRACE_SCOPE("jpeg/decode/products");
    products.cover(dequantized_bound(levels, qtable));
  }
  return decode_with(c, qtable, levels, opts, products);
}

namespace {

constexpr std::uint32_t kMagic = 0x524A5047;  // "RJPG"

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& in, std::size_t& pos) {
  if (pos + 4 > in.size()) throw std::runtime_error("deserialize: truncated blob");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[pos++]) << (8 * i);
  return v;
}

void put_bytes(std::vector<std::uint8_t>& out, const std::vector<std::uint8_t>& bytes) {
  put_u32(out, static_cast<std::uint32_t>(bytes.size()));
  out.insert(out.end(), bytes.begin(), bytes.end());
}

std::vector<std::uint8_t> get_bytes(const std::vector<std::uint8_t>& in,
                                    std::size_t& pos) {
  const std::uint32_t size = get_u32(in, pos);
  if (pos + size > in.size()) throw std::runtime_error("deserialize: truncated blob");
  std::vector<std::uint8_t> bytes(in.begin() + static_cast<std::ptrdiff_t>(pos),
                                  in.begin() + static_cast<std::ptrdiff_t>(pos + size));
  pos += size;
  return bytes;
}

}  // namespace

std::vector<std::uint8_t> serialize(const Compressed& c) {
  std::vector<std::uint8_t> out;
  put_u32(out, kMagic);
  put_u32(out, static_cast<std::uint32_t>(c.width));
  put_u32(out, static_cast<std::uint32_t>(c.height));
  put_u32(out, static_cast<std::uint32_t>(c.quality));
  put_bytes(out, c.dc_code_lengths);
  put_bytes(out, c.ac_code_lengths);
  put_bytes(out, c.payload);
  return out;
}

Compressed deserialize(const std::vector<std::uint8_t>& blob) {
  std::size_t pos = 0;
  if (get_u32(blob, pos) != kMagic) {
    throw std::runtime_error("deserialize: not an RJPG blob");
  }
  Compressed c;
  c.width = static_cast<int>(get_u32(blob, pos));
  c.height = static_cast<int>(get_u32(blob, pos));
  c.quality = static_cast<int>(get_u32(blob, pos));
  if (c.width <= 0 || c.height <= 0 || c.width % 8 != 0 || c.height % 8 != 0 ||
      c.quality < 1 || c.quality > 100) {
    throw std::runtime_error("deserialize: implausible header");
  }
  c.dc_code_lengths = get_bytes(blob, pos);
  c.ac_code_lengths = get_bytes(blob, pos);
  c.payload = get_bytes(blob, pos);
  return c;
}

void write_compressed(const Compressed& c, const std::string& path) {
  std::ofstream os{path, std::ios::binary};
  if (!os) throw std::runtime_error("write_compressed: cannot open " + path);
  const auto blob = serialize(c);
  os.write(reinterpret_cast<const char*>(blob.data()),
           static_cast<std::streamsize>(blob.size()));
  if (!os) throw std::runtime_error("write_compressed: write failed for " + path);
}

Compressed read_compressed(const std::string& path) {
  std::ifstream is{path, std::ios::binary};
  if (!is) throw std::runtime_error("read_compressed: cannot open " + path);
  std::vector<std::uint8_t> blob{std::istreambuf_iterator<char>{is},
                                 std::istreambuf_iterator<char>{}};
  return deserialize(blob);
}

}  // namespace realm::jpeg
