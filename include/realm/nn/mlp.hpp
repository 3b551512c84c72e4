// Tiny multilayer perceptron: float training, fixed-point inference with a
// pluggable approximate multiplier.
//
// The paper motivates approximate multipliers with machine-learning
// workloads (§I); this module provides a self-contained classification
// study: train a small MLP in double precision on a synthetic dataset,
// quantize weights/activations to Q8 fixed point, and run inference with the
// multiplier under test (products via num::signed_row_batch).  The question
// the bench asks: how much accuracy does each Table I design give up?

#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace realm {
class Multiplier;
}  // namespace realm

namespace realm::nn {

/// 2-D binary classification set.
struct Dataset {
  std::vector<std::array<double, 2>> x;
  std::vector<int> y;  // 0 or 1
};

/// Interleaved two-moons dataset (the classic nonlinearly separable toy),
/// deterministic per seed.
[[nodiscard]] Dataset make_two_moons(int samples, double noise, std::uint64_t seed);

/// Fully connected ReLU network, double precision.
class Mlp {
 public:
  /// layers = {2, hidden..., 2}; weights initialized from `seed`.
  Mlp(std::vector<int> layers, std::uint64_t seed);

  /// Plain SGD on softmax cross-entropy.
  void train(const Dataset& data, int epochs, double learning_rate);

  [[nodiscard]] int predict(const std::array<double, 2>& x) const;
  [[nodiscard]] double accuracy(const Dataset& data) const;

  /// Q(frac_bits) fixed-point snapshot of the weights for integer inference.
  struct Quantized {
    std::vector<int> layers;
    int frac_bits;
    // Per layer: weights[out][in] and biases[out], Q(frac_bits).
    std::vector<std::vector<std::int32_t>> weights;
    std::vector<std::vector<std::int32_t>> biases;
  };
  [[nodiscard]] Quantized quantize(int frac_bits = 8) const;

 private:
  std::vector<double> forward(const std::array<double, 2>& x,
                              std::vector<std::vector<double>>* activations) const;

  std::vector<int> layers_;
  std::vector<std::vector<double>> weights_;  // [layer][out*in_count + in]
  std::vector<std::vector<double>> biases_;
};

/// Fixed-point inference with the multiplier under test: the whole input
/// batch runs through each layer as per-weight row batches — for every
/// (output neuron o, input i) the weight w[o][i] is fixed across the batch,
/// so the matvec issues one num::signed_row_batch over the samples' i-th
/// activations per weight, landing on the multiplier's row-hoisted kernels.
/// Products are accumulated i ascending per neuron on top of the bias.  The
/// per-sample bit-identity oracle lives in the test-support target.
[[nodiscard]] std::vector<int> predict_fixed_batch(
    const Mlp::Quantized& net, const std::vector<std::array<double, 2>>& xs,
    const Multiplier& mul);

[[nodiscard]] double accuracy_fixed_batch(const Mlp::Quantized& net, const Dataset& data,
                                          const Multiplier& mul);

}  // namespace realm::nn
