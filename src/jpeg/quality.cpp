#include "realm/jpeg/quality.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace realm::jpeg {

double mse(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument("mse: image size mismatch");
  }
  if (a.pixels().empty()) return 0.0;
  // The integer sum of d², exact in 64 bits.  While it stays below 2^53
  // (2^37 pixels) every partial sum is also exact in a double, so the
  // result equals that of a double accumulation bit for bit.  Chunks of
  // 2^16 pixels sum in 32 bits (2^16 · 255² < 2^32), which vectorizes.
  constexpr std::size_t kChunk = std::size_t{1} << 16;
  const std::uint8_t* pa = a.pixels().data();
  const std::uint8_t* pb = b.pixels().data();
  const std::size_t n = a.pixels().size();
  std::uint64_t acc = 0;
  for (std::size_t i0 = 0; i0 < n; i0 += kChunk) {
    const std::size_t end = std::min(n, i0 + kChunk);
    std::uint32_t part = 0;
    for (std::size_t i = i0; i < end; ++i) {
      const int d = pa[i] - pb[i];
      part += static_cast<std::uint32_t>(d * d);
    }
    acc += part;
  }
  return static_cast<double>(acc) / static_cast<double>(n);
}

double psnr(const Image& a, const Image& b) {
  const double m = mse(a, b);
  if (m == 0.0) return std::numeric_limits<double>::infinity();
  return 10.0 * std::log10(255.0 * 255.0 / m);
}

}  // namespace realm::jpeg
