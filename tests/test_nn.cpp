#include "realm/nn/mlp.hpp"

#include <gtest/gtest.h>

#include "realm/multipliers/accurate.hpp"
#include "realm/multipliers/registry.hpp"

using namespace realm;

namespace {

const mult::AccurateMultiplier kExact{16};

nn::Dataset train_set() { return nn::make_two_moons(600, 0.25, 0xDA7A); }
nn::Dataset test_set() { return nn::make_two_moons(400, 0.25, 0x7E57); }

nn::Mlp trained_net() {
  nn::Mlp net{{2, 16, 2}, 0x1234};
  net.train(train_set(), 60, 0.05);
  return net;
}

}  // namespace

TEST(TwoMoons, DeterministicAndBalanced) {
  const auto a = nn::make_two_moons(100, 0.1, 1);
  const auto b = nn::make_two_moons(100, 0.1, 1);
  ASSERT_EQ(a.x.size(), 100u);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
  int ones = 0;
  for (const int y : a.y) ones += y;
  EXPECT_EQ(ones, 50);
}

TEST(Mlp, TrainsToHighFloatAccuracy) {
  const auto net = trained_net();
  EXPECT_GT(net.accuracy(train_set()), 0.95);
  EXPECT_GT(net.accuracy(test_set()), 0.93);
}

TEST(Mlp, UntrainedIsNearChance) {
  nn::Mlp net{{2, 16, 2}, 0x1234};
  const double acc = net.accuracy(test_set());
  EXPECT_GT(acc, 0.2);
  EXPECT_LT(acc, 0.8);
}

TEST(Mlp, QuantizedExactInferenceMatchesFloatClosely) {
  const auto net = trained_net();
  const auto q = net.quantize(8);
  const auto data = test_set();
  const double fl = net.accuracy(data);
  const double fx = nn::accuracy_fixed_batch(q, data, kExact);
  EXPECT_NEAR(fx, fl, 0.04);  // Q8 quantization costs at most a few points
}

TEST(Mlp, RealmInferenceMatchesExactFixedPoint) {
  const auto net = trained_net();
  const auto q = net.quantize(8);
  const auto data = test_set();
  const double exact_acc = nn::accuracy_fixed_batch(q, data, kExact);
  const auto realm = mult::make_multiplier("realm:m=16,t=8", 16);
  const double realm_acc = nn::accuracy_fixed_batch(q, data, *realm);
  EXPECT_GT(realm_acc, exact_acc - 0.03);
}

TEST(Mlp, ApproximateOrderingFollowsMultiplierAccuracy) {
  const auto net = trained_net();
  const auto q = net.quantize(8);
  const auto data = test_set();
  const auto acc_of = [&](const char* spec) {
    const auto mul = mult::make_multiplier(spec, 16);
    return nn::accuracy_fixed_batch(q, data, *mul);
  };
  // The 2-16-2 net is robust; even cALM usually classifies well, but it must
  // not beat REALM by a margin, and a catastrophically bad multiplier
  // (AM1 nb=5, -62 % worst case) must visibly hurt.
  EXPECT_GE(acc_of("realm:m=16,t=8") + 0.02, acc_of("calm"));
  EXPECT_GT(acc_of("realm:m=16,t=8"), 0.9);
  EXPECT_LT(acc_of("am1:nb=5"), acc_of("realm:m=16,t=8") + 1e-9);
}

TEST(Mlp, ValidatesLayerShape) {
  EXPECT_THROW(nn::Mlp({2}, 1), std::invalid_argument);
  EXPECT_THROW(nn::Mlp({3, 4, 2}, 1), std::invalid_argument);
  EXPECT_THROW(nn::Mlp({2, 4, 3}, 1), std::invalid_argument);
  EXPECT_THROW(nn::make_two_moons(1, 0.1, 1), std::invalid_argument);
}
