// Fixed-point image filtering with a pluggable multiplier — additional
// error-resilient applications of the kind the paper's introduction
// motivates (multimedia processing) beyond the JPEG study of §IV-D.
//
// Kernels are quantized to Q(frac_bits) signed fixed point; every
// coefficient×pixel product goes through the multiplier under test via the
// sign-magnitude scheme.  Each tap is fixed across an image row, so the
// filters issue one num::signed_row_batch per (tap, row) and land on the
// multiplier's row-hoisted kernels.  Their bit-identity oracles (one
// num::signed_mul per product) live in the test-support target.

#pragma once

#include <vector>

#include "realm/jpeg/image.hpp"

namespace realm {
class Multiplier;
}  // namespace realm

namespace realm::dsp {

/// Normalized 2-D Gaussian kernel, size×size taps (size odd).
[[nodiscard]] std::vector<double> gaussian_kernel(int size, double sigma);

/// 2-D convolution with replicate border handling.  `kernel` is size×size
/// row-major real coefficients, quantized internally to Q(frac_bits).  One
/// num::signed_row_batch per (ky, kx) tap over a border-replicated row of
/// pixels; tap-first products are accumulated ky-major, kx-minor, and zero
/// taps are skipped.
[[nodiscard]] jpeg::Image convolve_batch(const jpeg::Image& img,
                                         const std::vector<double>& kernel, int size,
                                         const Multiplier& mul, int frac_bits = 10);

/// Gaussian blur through the multiplier under test.
[[nodiscard]] jpeg::Image gaussian_blur_batch(const jpeg::Image& img, double sigma,
                                              const Multiplier& mul);

/// Sobel gradient magnitude (|Gx| + |Gy|, clamped to 8 bits); the gradient
/// products go through the multiplier under test.
[[nodiscard]] jpeg::Image sobel_batch(const jpeg::Image& img, const Multiplier& mul);

}  // namespace realm::dsp
