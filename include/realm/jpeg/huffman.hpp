// Entropy coding: bit I/O plus canonical Huffman codes built from symbol
// statistics.  The codec stores the code lengths in the stream header
// (canonical reconstruction on decode), so round-trips are self-contained.
// Entropy coding is lossless and does not affect Table II's PSNR — it exists
// so the JPEG substrate is a complete codec with measurable bitstream sizes.

#pragma once

#include <cstdint>
#include <vector>

namespace realm::jpeg {

class BitWriter {
 public:
  /// Appends the `bits` (<= 32) low bits of `value`, MSB first.
  void put(std::uint32_t value, int bits);
  /// Flushes any partial byte (zero padding) and returns the buffer.
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;  // the low acc_bits_ bits are pending, MSB first
  int acc_bits_ = 0;       // < 32 between calls
};

class BitReader {
 public:
  /// Reads `bytes`, which must outlive the reader and stay unchanged.
  explicit BitReader(const std::vector<std::uint8_t>& bytes);
  /// Reads `bits` (<= 32) bits MSB-first; throws std::runtime_error past
  /// the end.
  [[nodiscard]] std::uint32_t get(int bits);
  /// Reads a single bit.
  [[nodiscard]] int get_bit();
  /// The next `bits` (1..32) bits MSB-first, without consuming them; bits
  /// past the end read as 0.
  [[nodiscard]] std::uint32_t peek(int bits);

 private:
  // Loads whole bytes into the window until it holds more than 56 bits or
  // the input ends.
  void refill();

  const std::uint8_t* next_;  // the first byte not yet in the window
  const std::uint8_t* end_;
  // The next window_bits_ bits of the stream, MSB-aligned.  Below them it
  // holds zeros or the stream's own following bits, never anything else.
  std::uint64_t window_ = 0;
  int window_bits_ = 0;
};

/// Canonical Huffman code over a dense symbol alphabet [0, n).
class HuffmanCode {
 public:
  /// Builds code lengths from symbol frequencies (zero-frequency symbols get
  /// no code).  Lengths are capped at 16 bits via the JPEG-style adjustment.
  static HuffmanCode from_frequencies(const std::vector<std::uint64_t>& freq);

  /// Rebuilds the code from stored lengths (canonical assignment).  Throws
  /// std::runtime_error for a length above 16 or an over-subscribed set
  /// (Σ 2^-length > 1), which no prefix code has.
  static HuffmanCode from_lengths(const std::vector<std::uint8_t>& lengths);

  [[nodiscard]] const std::vector<std::uint8_t>& lengths() const noexcept {
    return lengths_;
  }

  void encode(BitWriter& w, int symbol) const;
  /// Decodes one symbol; throws std::runtime_error past the end of the
  /// stream or on bits that start no code.
  [[nodiscard]] int decode(BitReader& r) const;

 private:
  // Codes of at most this many bits decode with one table lookup.
  static constexpr int kLookupBits = 9;

  void assign_codes();
  [[nodiscard]] int decode_canonical(BitReader& r) const;

  std::vector<std::uint8_t> lengths_;
  std::vector<std::uint32_t> codes_;
  // Decode tables per length: first code value, symbol-index base, and the
  // number of codes of that length.
  std::vector<std::uint32_t> first_code_;
  std::vector<std::uint32_t> first_index_;
  std::vector<std::uint32_t> len_count_;
  std::vector<int> sorted_symbols_;
  // Per kLookupBits-bit prefix: (symbol << 8) | length of the code it
  // starts, or 0 when no code of at most kLookupBits bits starts it.
  std::vector<std::uint32_t> lookup_;
};

}  // namespace realm::jpeg
