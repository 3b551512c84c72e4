// Grayscale JPEG-style codec with a pluggable integer multiplier
// (paper §IV-D: JPEG at quality 50 in 16-bit fixed point).
//
// Pipeline per 8×8 block: level shift → fixed-point FDCT → quantize →
// zigzag + RLE → canonical Huffman.  Decoding mirrors it; the IDCT goes
// through the same multiplier, while dequantization multiplies exactly by
// the known quantizer constants.  The bitstream is this library's
// own compact format (header with dimensions, quality, and Huffman code
// lengths), not JFIF — the paper's metric (PSNR vs the uncompressed image)
// only needs a faithful lossy pipeline.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "realm/jpeg/image.hpp"
#include "realm/numeric/fixed_point.hpp"

namespace realm {
class Multiplier;
}  // namespace realm

namespace realm::jpeg {

struct CodecOptions {
  int quality = 50;
  /// Read only by encode_plane_reference / decode_plane_reference, the
  /// scalar bit-identity oracles (empty = exact).  The engine rejects
  /// options that set `umul` without `mul` with std::invalid_argument, since
  /// it would otherwise ignore the multiplier the caller asked for.
  num::UMulFn umul;
  /// The design under test for the DCT and the IDCT.  The dequantizer is not
  /// one of its uses: it multiplies by one of 64 *known constants*, which
  /// hardware implements as shift-add constant multipliers, so the design
  /// under test replaces only the general-purpose MAC multipliers of the
  /// transform.  Every codec entry point runs the panel engine on it:
  /// encode() and decode() each build one DctProducts table of the design
  /// over the magnitudes their transforms can read (multiply_row_range
  /// calls, at most 512 magnitudes each), roundtrip() one that it extends
  /// for the decode half, and the transforms read every product from it,
  /// with the block passes sharded over the persistent thread pool per
  /// `threads`.  Its width must be at least 16 and no product the table
  /// holds may exceed 2^28 − 1 (std::invalid_argument otherwise).
  /// nullptr = exact products.  Not owned; must outlive the call.
  const Multiplier* mul = nullptr;
  /// Parallelism of the panel engine's block shards (1 = serial, 0 or
  /// negative = all hardware threads).  Encoded bytes and decoded pixels are
  /// invariant to this by construction: the shard grid is a fixed function
  /// of the block count and shards write disjoint block-index ranges.
  int threads = 1;
};

struct Compressed {
  int width = 0;
  int height = 0;
  int quality = 50;
  std::vector<std::uint8_t> payload;          ///< entropy-coded blocks
  std::vector<std::uint8_t> dc_code_lengths;  ///< canonical Huffman header
  std::vector<std::uint8_t> ac_code_lengths;

  /// Total compressed size in bytes: the length of serialize(*this), the
  /// blob write_compressed() writes.
  [[nodiscard]] std::size_t size_bytes() const noexcept;
};

/// Compresses `img` (dimensions must be multiples of 8).  Throws
/// std::invalid_argument when a quantized level or DC difference needs
/// category 16, which only a design far from the exact product produces.
[[nodiscard]] Compressed encode(const Image& img, const CodecOptions& opts);

/// Reconstructs an image; uses the same multiplier options for the IDCT.
/// Throws std::runtime_error for a malformed stream.
[[nodiscard]] Image decode(const Compressed& c, const CodecOptions& opts);

/// encode + decode in one call — what the Table II evaluation runs.  Equal
/// to decode(encode(img, opts), opts), with one DctProducts table built for
/// the encode half and extended for the decode half.
[[nodiscard]] Image roundtrip(const Image& img, const CodecOptions& opts);

/// Single-blob bitstream: magic + dimensions + quality + Huffman code
/// lengths + payload, so compressed images survive a trip through a file.
/// (This library's own container, not JFIF — see the header comment.)
[[nodiscard]] std::vector<std::uint8_t> serialize(const Compressed& c);
[[nodiscard]] Compressed deserialize(const std::vector<std::uint8_t>& blob);

/// File convenience wrappers around serialize/deserialize.
void write_compressed(const Compressed& c, const std::string& path);
[[nodiscard]] Compressed read_compressed(const std::string& path);

/// The scalar reference paths — one virtual multiply per product through
/// opts.umul, single-threaded — kept as the bit-identity oracle for the
/// panel engine (opts.mul and opts.threads are ignored here).  They take
/// an explicit quantization table; with qtable = scaled_table(quality) and
/// umul = mul.as_function() their bytes and pixels equal encode / decode on
/// mul.
[[nodiscard]] Compressed encode_plane_reference(const Image& img,
                                                const std::array<std::uint16_t, 64>& qtable,
                                                const CodecOptions& opts);
[[nodiscard]] Image decode_plane_reference(const Compressed& c,
                                           const std::array<std::uint16_t, 64>& qtable,
                                           const CodecOptions& opts);

}  // namespace realm::jpeg
