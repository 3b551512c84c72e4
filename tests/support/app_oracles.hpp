// Bit-identity oracles for the batched application engine: the scalar DSP
// filters and MLP inference, one num::signed_mul per product through a
// UMulFn.  They live in the realm_test_support target, which only tests and
// bit-identity benches link; the library's applications take a
// `const Multiplier&` and run num::signed_row_batch.
//
// Each oracle issues the same products in the same accumulation order as
// its batched counterpart, so with umul = mul.as_function() the outputs must
// match bit for bit:
//   convolve_reference / gaussian_blur_reference / sobel_reference
//     vs dsp::convolve_batch / gaussian_blur_batch / sobel_batch;
//   predict_fixed_reference / accuracy_fixed_reference
//     vs nn::predict_fixed_batch / accuracy_fixed_batch.

#pragma once

#include <array>
#include <vector>

#include "realm/jpeg/image.hpp"
#include "realm/nn/mlp.hpp"
#include "realm/numeric/fixed_point.hpp"

namespace realm::dsp {

/// 2-D convolution with replicate border handling, one product per call.
[[nodiscard]] jpeg::Image convolve_reference(const jpeg::Image& img,
                                             const std::vector<double>& kernel, int size,
                                             const num::UMulFn& umul, int frac_bits = 10);

[[nodiscard]] jpeg::Image gaussian_blur_reference(const jpeg::Image& img, double sigma,
                                                  const num::UMulFn& umul);

[[nodiscard]] jpeg::Image sobel_reference(const jpeg::Image& img, const num::UMulFn& umul);

}  // namespace realm::dsp

namespace realm::nn {

/// Fixed-point inference of one sample, one product per MAC.
[[nodiscard]] int predict_fixed_reference(const Mlp::Quantized& net,
                                          const std::array<double, 2>& x,
                                          const num::UMulFn& umul);

[[nodiscard]] double accuracy_fixed_reference(const Mlp::Quantized& net,
                                              const Dataset& data, const num::UMulFn& umul);

}  // namespace realm::nn
