#include "realm/nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "realm/multiplier.hpp"
#include "realm/numeric/fixed_point.hpp"
#include "realm/numeric/rng.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/trace.hpp"

namespace realm::nn {

Dataset make_two_moons(int samples, double noise, std::uint64_t seed) {
  if (samples < 2) throw std::invalid_argument("make_two_moons: samples >= 2");
  num::Xoshiro256 rng{seed};
  const double pi = std::acos(-1.0);
  Dataset d;
  d.x.reserve(static_cast<std::size_t>(samples));
  d.y.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const int label = i % 2;
    const double t = pi * rng.uniform();
    double px, py;
    if (label == 0) {
      px = std::cos(t);
      py = std::sin(t);
    } else {
      px = 1.0 - std::cos(t);
      py = 0.5 - std::sin(t);
    }
    px += noise * (rng.uniform() - 0.5);
    py += noise * (rng.uniform() - 0.5);
    d.x.push_back({px, py});
    d.y.push_back(label);
  }
  return d;
}

Mlp::Mlp(std::vector<int> layers, std::uint64_t seed) : layers_{std::move(layers)} {
  if (layers_.size() < 2 || layers_.front() != 2 || layers_.back() != 2) {
    throw std::invalid_argument("Mlp: layers must run from 2 inputs to 2 outputs");
  }
  num::Xoshiro256 rng{seed};
  for (std::size_t l = 0; l + 1 < layers_.size(); ++l) {
    const int in = layers_[l];
    const int out = layers_[l + 1];
    // He-style initialization for the ReLU stack.
    const double scale = std::sqrt(2.0 / in);
    std::vector<double> w(static_cast<std::size_t>(in) * static_cast<std::size_t>(out));
    for (auto& v : w) v = scale * (2.0 * rng.uniform() - 1.0);
    weights_.push_back(std::move(w));
    biases_.emplace_back(static_cast<std::size_t>(out), 0.0);
  }
}

std::vector<double> Mlp::forward(const std::array<double, 2>& x,
                                 std::vector<std::vector<double>>* activations) const {
  std::vector<double> cur{x[0], x[1]};
  if (activations != nullptr) activations->push_back(cur);
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    const int in = layers_[l];
    const int out = layers_[l + 1];
    std::vector<double> next(static_cast<std::size_t>(out));
    for (int o = 0; o < out; ++o) {
      double acc = biases_[l][static_cast<std::size_t>(o)];
      for (int i = 0; i < in; ++i) {
        acc += weights_[l][static_cast<std::size_t>(o * in + i)] *
               cur[static_cast<std::size_t>(i)];
      }
      const bool last = l + 1 == weights_.size();
      next[static_cast<std::size_t>(o)] = last ? acc : std::max(0.0, acc);
    }
    cur = std::move(next);
    if (activations != nullptr) activations->push_back(cur);
  }
  return cur;
}

void Mlp::train(const Dataset& data, int epochs, double learning_rate) {
  num::Xoshiro256 rng{0x7ea1};
  std::vector<std::size_t> order(data.x.size());
  std::iota(order.begin(), order.end(), std::size_t{0});

  for (int epoch = 0; epoch < epochs; ++epoch) {
    // Fisher-Yates shuffle for per-epoch SGD order.
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
    for (const std::size_t idx : order) {
      std::vector<std::vector<double>> acts;
      const std::vector<double> logits = forward(data.x[idx], &acts);

      // Softmax cross-entropy gradient on the logits.
      const double mx = std::max(logits[0], logits[1]);
      const double e0 = std::exp(logits[0] - mx);
      const double e1 = std::exp(logits[1] - mx);
      const double z = e0 + e1;
      std::vector<double> delta{e0 / z, e1 / z};
      delta[static_cast<std::size_t>(data.y[idx])] -= 1.0;

      // Backprop through the ReLU stack.
      for (std::size_t l = weights_.size(); l-- > 0;) {
        const int in = layers_[l];
        const int out = layers_[l + 1];
        const auto& a_in = acts[l];
        std::vector<double> delta_in(static_cast<std::size_t>(in), 0.0);
        for (int o = 0; o < out; ++o) {
          const double d = delta[static_cast<std::size_t>(o)];
          biases_[l][static_cast<std::size_t>(o)] -= learning_rate * d;
          for (int i = 0; i < in; ++i) {
            auto& w = weights_[l][static_cast<std::size_t>(o * in + i)];
            delta_in[static_cast<std::size_t>(i)] += w * d;
            w -= learning_rate * d * a_in[static_cast<std::size_t>(i)];
          }
        }
        if (l > 0) {
          for (int i = 0; i < in; ++i) {
            if (acts[l][static_cast<std::size_t>(i)] <= 0.0) {
              delta_in[static_cast<std::size_t>(i)] = 0.0;  // ReLU gate
            }
          }
        }
        delta = std::move(delta_in);
      }
    }
  }
}

int Mlp::predict(const std::array<double, 2>& x) const {
  const auto logits = forward(x, nullptr);
  return logits[1] > logits[0] ? 1 : 0;
}

double Mlp::accuracy(const Dataset& data) const {
  int correct = 0;
  for (std::size_t i = 0; i < data.x.size(); ++i) {
    if (predict(data.x[i]) == data.y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.x.size());
}

Mlp::Quantized Mlp::quantize(int frac_bits) const {
  Quantized q;
  q.layers = layers_;
  q.frac_bits = frac_bits;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    std::vector<std::int32_t> w(weights_[l].size());
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = num::to_fx(weights_[l][i], frac_bits);
    q.weights.push_back(std::move(w));
    std::vector<std::int32_t> b(biases_[l].size());
    // Biases add to Q(2·frac) products before rescaling.
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = num::to_fx(biases_[l][i], 2 * frac_bits);
    }
    q.biases.push_back(std::move(b));
  }
  return q;
}

std::vector<int> predict_fixed_batch(const Mlp::Quantized& net,
                                     const std::vector<std::array<double, 2>>& xs,
                                     const Multiplier& mul) {
  const std::size_t S = xs.size();
  if (S == 0) return {};
  REALM_TRACE_SCOPE("nn/forward_batched");
  const int fb = net.frac_bits;

  // Activations feature-major: act[i * S + s] is sample s's i-th feature, so
  // each (o, i) weight's row batch reads one contiguous lane of samples.
  std::vector<std::int64_t> act(2 * S);
  for (std::size_t s = 0; s < S; ++s) {
    act[0 * S + s] = num::to_fx(xs[s][0], fb);
    act[1 * S + s] = num::to_fx(xs[s][1], fb);
  }

  std::vector<std::int64_t> acc, prod(S), next;
  std::uint64_t macs = 0;
  for (std::size_t l = 0; l < net.weights.size(); ++l) {
    const auto in = static_cast<std::size_t>(net.layers[l]);
    const auto out = static_cast<std::size_t>(net.layers[l + 1]);
    acc.assign(out * S, 0);
    for (std::size_t o = 0; o < out; ++o) {
      std::int64_t* a = acc.data() + o * S;
      for (std::size_t s = 0; s < S; ++s) a[s] = net.biases[l][o];  // Q(2fb)
      for (std::size_t i = 0; i < in; ++i) {
        num::signed_row_batch(net.weights[l][o * in + i], act.data() + i * S,
                              prod.data(), S, mul);
        for (std::size_t s = 0; s < S; ++s) a[s] += prod[s];
      }
    }
    macs += in * out * S;
    const bool last = l + 1 == net.weights.size();
    next.assign(out * S, 0);
    for (std::size_t o = 0; o < out; ++o) {
      const std::int64_t* a = acc.data() + o * S;
      for (std::size_t s = 0; s < S; ++s) {
        std::int32_t v = num::sat_signed(a[s] >> fb, 16);  // back to Q(fb)
        if (!last && v < 0) v = 0;                         // ReLU
        next[o * S + s] = v;
      }
    }
    act = std::move(next);
    next = {};
  }
  obs::counter_add(obs::Counter::kNnMacsBatched, macs);

  std::vector<int> labels(S);
  for (std::size_t s = 0; s < S; ++s) {
    labels[s] = act[1 * S + s] > act[0 * S + s] ? 1 : 0;
  }
  return labels;
}

double accuracy_fixed_batch(const Mlp::Quantized& net, const Dataset& data,
                            const Multiplier& mul) {
  const std::vector<int> pred = predict_fixed_batch(net, data.x, mul);
  int correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == data.y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.x.size());
}

}  // namespace realm::nn
