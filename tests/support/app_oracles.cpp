#include "app_oracles.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

#include "realm/dsp/filter.hpp"

namespace realm::dsp {

jpeg::Image convolve_reference(const jpeg::Image& img, const std::vector<double>& kernel,
                               int size, const num::UMulFn& umul, int frac_bits) {
  if (size < 1 || size % 2 == 0) throw std::invalid_argument("convolve: odd size");
  if (kernel.size() != static_cast<std::size_t>(size) * static_cast<std::size_t>(size)) {
    throw std::invalid_argument("convolve: kernel size mismatch");
  }
  // Quantize the taps once.
  std::vector<std::int32_t> taps(kernel.size());
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    taps[i] = num::to_fx(kernel[i], frac_bits);
  }

  const int r = size / 2;
  jpeg::Image out{img.width(), img.height()};
  const auto clamp_coord = [](int v, int hi) { return std::clamp(v, 0, hi - 1); };
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      std::int64_t acc = 0;
      for (int ky = -r; ky <= r; ++ky) {
        for (int kx = -r; kx <= r; ++kx) {
          const std::int32_t tap =
              taps[static_cast<std::size_t>((ky + r) * size + (kx + r))];
          if (tap == 0) continue;
          const int px = img.at(clamp_coord(x + kx, img.width()),
                                clamp_coord(y + ky, img.height()));
          acc += num::signed_mul(tap, px, umul);
        }
      }
      const auto v = static_cast<std::int64_t>(acc >> frac_bits);
      out.set(x, y, static_cast<std::uint8_t>(std::clamp<std::int64_t>(v, 0, 255)));
    }
  }
  return out;
}

jpeg::Image gaussian_blur_reference(const jpeg::Image& img, double sigma,
                                    const num::UMulFn& umul) {
  const int size = std::max(3, 2 * static_cast<int>(std::ceil(2.0 * sigma)) + 1);
  return convolve_reference(img, gaussian_kernel(size, sigma), size, umul);
}

jpeg::Image sobel_reference(const jpeg::Image& img, const num::UMulFn& umul) {
  static constexpr int kGx[9] = {-1, 0, 1, -2, 0, 2, -1, 0, 1};
  static constexpr int kGy[9] = {-1, -2, -1, 0, 0, 0, 1, 2, 1};
  jpeg::Image out{img.width(), img.height()};
  const auto clamp_coord = [](int v, int hi) { return std::clamp(v, 0, hi - 1); };
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      std::int64_t gx = 0, gy = 0;
      for (int ky = -1; ky <= 1; ++ky) {
        for (int kx = -1; kx <= 1; ++kx) {
          const int px = img.at(clamp_coord(x + kx, img.width()),
                                clamp_coord(y + ky, img.height()));
          const int idx = (ky + 1) * 3 + (kx + 1);
          if (kGx[idx] != 0) gx += num::signed_mul(kGx[idx], px, umul);
          if (kGy[idx] != 0) gy += num::signed_mul(kGy[idx], px, umul);
        }
      }
      const std::int64_t mag = std::abs(gx) + std::abs(gy);
      out.set(x, y, static_cast<std::uint8_t>(std::clamp<std::int64_t>(mag, 0, 255)));
    }
  }
  return out;
}

}  // namespace realm::dsp

namespace realm::nn {

int predict_fixed_reference(const Mlp::Quantized& net, const std::array<double, 2>& x,
                            const num::UMulFn& umul) {
  const int fb = net.frac_bits;
  std::vector<std::int32_t> cur{num::to_fx(x[0], fb), num::to_fx(x[1], fb)};
  for (std::size_t l = 0; l < net.weights.size(); ++l) {
    const int in = net.layers[l];
    const int out = net.layers[l + 1];
    std::vector<std::int32_t> next(static_cast<std::size_t>(out));
    for (int o = 0; o < out; ++o) {
      std::int64_t acc = net.biases[l][static_cast<std::size_t>(o)];  // Q(2fb)
      for (int i = 0; i < in; ++i) {
        acc += num::signed_mul(net.weights[l][static_cast<std::size_t>(o * in + i)],
                               cur[static_cast<std::size_t>(i)], umul);
      }
      std::int32_t v = num::sat_signed(acc >> fb, 16);  // back to Q(fb)
      const bool last = l + 1 == net.weights.size();
      if (!last && v < 0) v = 0;  // ReLU
      next[static_cast<std::size_t>(o)] = v;
    }
    cur = std::move(next);
  }
  return cur[1] > cur[0] ? 1 : 0;
}

double accuracy_fixed_reference(const Mlp::Quantized& net, const Dataset& data,
                                const num::UMulFn& umul) {
  int correct = 0;
  for (std::size_t i = 0; i < data.x.size(); ++i) {
    if (predict_fixed_reference(net, data.x[i], umul) == data.y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.x.size());
}

}  // namespace realm::nn
