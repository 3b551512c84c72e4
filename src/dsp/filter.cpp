#include "realm/dsp/filter.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "realm/multiplier.hpp"
#include "realm/numeric/fixed_point.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/trace.hpp"

namespace realm::dsp {

namespace {

// Border-replicated pixel row: padded[j] = row[clamp(j - r)], j in
// [0, w + 2r), so the pixel at column (x + kx, clamped) is padded[x + kx + r]
// for every x in the row.
void gather_padded_row(const jpeg::Image& img, int y, int r,
                       std::vector<std::int64_t>& padded) {
  const int w = img.width();
  for (int j = 0; j < w + 2 * r; ++j) {
    padded[static_cast<std::size_t>(j)] = img.at(std::clamp(j - r, 0, w - 1), y);
  }
}

}  // namespace

std::vector<double> gaussian_kernel(int size, double sigma) {
  if (size < 1 || size % 2 == 0) throw std::invalid_argument("gaussian_kernel: odd size");
  if (sigma <= 0.0) throw std::invalid_argument("gaussian_kernel: sigma > 0");
  std::vector<double> k(static_cast<std::size_t>(size) * static_cast<std::size_t>(size));
  const int r = size / 2;
  double sum = 0.0;
  for (int y = -r; y <= r; ++y) {
    for (int x = -r; x <= r; ++x) {
      const double v = std::exp(-(x * x + y * y) / (2.0 * sigma * sigma));
      k[static_cast<std::size_t>((y + r) * size + (x + r))] = v;
      sum += v;
    }
  }
  for (auto& v : k) v /= sum;
  return k;
}

jpeg::Image convolve_batch(const jpeg::Image& img, const std::vector<double>& kernel,
                           int size, const Multiplier& mul, int frac_bits) {
  if (size < 1 || size % 2 == 0) throw std::invalid_argument("convolve: odd size");
  if (kernel.size() != static_cast<std::size_t>(size) * static_cast<std::size_t>(size)) {
    throw std::invalid_argument("convolve: kernel size mismatch");
  }
  REALM_TRACE_SCOPE("dsp/convolve_batched");
  std::vector<std::int32_t> taps(kernel.size());
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    taps[i] = num::to_fx(kernel[i], frac_bits);
  }

  const int r = size / 2;
  const int w = img.width();
  const auto uw = static_cast<std::size_t>(w);
  jpeg::Image out{w, img.height()};
  std::vector<std::int64_t> padded(uw + 2 * static_cast<std::size_t>(r));
  std::vector<std::int64_t> acc(uw), prod(uw);
  std::uint64_t products = 0;
  for (int y = 0; y < img.height(); ++y) {
    std::fill(acc.begin(), acc.end(), std::int64_t{0});
    // Same tap order as the reference oracle (ky-major, kx-minor, zero taps
    // skipped); each tap is fixed across the row, so it lowers onto one
    // row batch over the replicated pixel row.
    for (int ky = -r; ky <= r; ++ky) {
      gather_padded_row(img, std::clamp(y + ky, 0, img.height() - 1), r, padded);
      for (int kx = -r; kx <= r; ++kx) {
        const std::int32_t tap = taps[static_cast<std::size_t>((ky + r) * size + (kx + r))];
        if (tap == 0) continue;
        num::signed_row_batch(tap, padded.data() + kx + r, prod.data(), uw, mul);
        for (std::size_t x = 0; x < uw; ++x) acc[x] += prod[x];
        products += uw;
      }
    }
    for (int x = 0; x < w; ++x) {
      const auto v = static_cast<std::int64_t>(acc[static_cast<std::size_t>(x)] >> frac_bits);
      out.set(x, y, static_cast<std::uint8_t>(std::clamp<std::int64_t>(v, 0, 255)));
    }
  }
  obs::counter_add(obs::Counter::kDspTapsBatched, products);
  return out;
}

jpeg::Image gaussian_blur_batch(const jpeg::Image& img, double sigma,
                                const Multiplier& mul) {
  const int size = std::max(3, 2 * static_cast<int>(std::ceil(2.0 * sigma)) + 1);
  return convolve_batch(img, gaussian_kernel(size, sigma), size, mul);
}

jpeg::Image sobel_batch(const jpeg::Image& img, const Multiplier& mul) {
  static constexpr int kGx[9] = {-1, 0, 1, -2, 0, 2, -1, 0, 1};
  static constexpr int kGy[9] = {-1, -2, -1, 0, 0, 0, 1, 2, 1};
  REALM_TRACE_SCOPE("dsp/sobel_batched");
  const int w = img.width();
  const auto uw = static_cast<std::size_t>(w);
  jpeg::Image out{w, img.height()};
  std::vector<std::int64_t> padded(uw + 2);
  std::vector<std::int64_t> gx(uw), gy(uw), prod(uw);
  std::uint64_t products = 0;
  for (int y = 0; y < img.height(); ++y) {
    std::fill(gx.begin(), gx.end(), std::int64_t{0});
    std::fill(gy.begin(), gy.end(), std::int64_t{0});
    for (int ky = -1; ky <= 1; ++ky) {
      gather_padded_row(img, std::clamp(y + ky, 0, img.height() - 1), 1, padded);
      for (int kx = -1; kx <= 1; ++kx) {
        const int idx = (ky + 1) * 3 + (kx + 1);
        if (kGx[idx] != 0) {
          num::signed_row_batch(kGx[idx], padded.data() + kx + 1, prod.data(), uw, mul);
          for (std::size_t x = 0; x < uw; ++x) gx[x] += prod[x];
          products += uw;
        }
        if (kGy[idx] != 0) {
          num::signed_row_batch(kGy[idx], padded.data() + kx + 1, prod.data(), uw, mul);
          for (std::size_t x = 0; x < uw; ++x) gy[x] += prod[x];
          products += uw;
        }
      }
    }
    for (int x = 0; x < w; ++x) {
      const auto ux = static_cast<std::size_t>(x);
      const std::int64_t mag = std::abs(gx[ux]) + std::abs(gy[ux]);
      out.set(x, y, static_cast<std::uint8_t>(std::clamp<std::int64_t>(mag, 0, 255)));
    }
  }
  obs::counter_add(obs::Counter::kDspTapsBatched, products);
  return out;
}

}  // namespace realm::dsp
