#include "realm/jpeg/quant.hpp"

#include <algorithm>
#include <stdexcept>

#include "realm/numeric/fixed_point.hpp"

namespace realm::jpeg {

const std::array<std::uint16_t, 64>& base_luminance_table() {
  static const std::array<std::uint16_t, 64> table{
      16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
      14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
      18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
      49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};
  return table;
}

std::array<std::uint16_t, 64> scaled_table(int quality) {
  if (quality < 1 || quality > 100) throw std::invalid_argument("quality in [1, 100]");
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  std::array<std::uint16_t, 64> out{};
  const auto& base = base_luminance_table();
  for (std::size_t i = 0; i < 64; ++i) {
    const int v = (base[i] * scale + 50) / 100;
    out[i] = static_cast<std::uint16_t>(std::clamp(v, 1, 255));
  }
  return out;
}

std::int16_t quantize(std::int32_t coeff, std::uint16_t q) noexcept {
  const int iq = q;
  const std::int32_t half = iq / 2;
  const std::int32_t r = coeff >= 0 ? (coeff + half) / iq : -((-coeff + half) / iq);
  return static_cast<std::int16_t>(r);
}

void quantize_panel(const std::int16_t* coeffs,
                    const std::array<std::uint16_t, 64>& qtable, std::int16_t* levels,
                    std::size_t n_blocks) noexcept {
  // Per-position exact reciprocals (see the header proof): one division per
  // table entry per call instead of one per coefficient.
  std::uint32_t recip[64];
  std::uint32_t half[64];
  for (std::size_t i = 0; i < 64; ++i) {
    recip[i] = ((1u << 24) + qtable[i] - 1u) / qtable[i];
    half[i] = qtable[i] / 2u;
  }
  for (std::size_t b = 0; b < n_blocks; ++b) {
    for (std::size_t i = 0; i < 64; ++i) {
      const std::int32_t c = coeffs[b * 64 + i];
      const std::uint32_t n = static_cast<std::uint32_t>(c >= 0 ? c : -c) + half[i];
      const auto q = static_cast<std::int32_t>(
          (static_cast<std::uint64_t>(n) * recip[i]) >> 24);
      levels[b * 64 + i] = static_cast<std::int16_t>(c >= 0 ? q : -q);
    }
  }
}

std::int16_t dequantize(std::int16_t level, std::uint16_t q) noexcept {
  return static_cast<std::int16_t>(num::sat_signed(std::int64_t{level} * q, 16));
}

void dequantize_panel(const std::int16_t* levels,
                      const std::array<std::uint16_t, 64>& qtable, std::int16_t* out,
                      std::size_t n_blocks) noexcept {
  for (std::size_t b = 0; b < n_blocks; ++b) {
    for (std::size_t i = 0; i < 64; ++i) {
      out[b * 64 + i] = dequantize(levels[b * 64 + i], qtable[i]);
    }
  }
}

const std::array<int, 64>& zigzag_order() {
  static const std::array<int, 64> zz = [] {
    std::array<int, 64> out{};
    int idx = 0;
    for (int s = 0; s < 15; ++s) {
      if (s % 2 == 0) {  // up-right
        for (int y = std::min(s, 7); y >= std::max(0, s - 7); --y) {
          out[static_cast<std::size_t>(idx++)] = y * 8 + (s - y);
        }
      } else {  // down-left
        for (int x = std::min(s, 7); x >= std::max(0, s - 7); --x) {
          out[static_cast<std::size_t>(idx++)] = (s - x) * 8 + x;
        }
      }
    }
    return out;
  }();
  return zz;
}

}  // namespace realm::jpeg
