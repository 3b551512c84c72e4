// Adder-architecture and multiplier-architecture substrate tests.

#include <tuple>

#include <gtest/gtest.h>

#include "realm/hw/circuits.hpp"
#include "realm/hw/components.hpp"
#include "realm/hw/simulator.hpp"
#include "realm/hw/timing.hpp"
#include "realm/numeric/rng.hpp"

using namespace realm::hw;
namespace num = realm::num;

namespace {

Module kogge_stone_module(int width, bool cin) {
  Module m{"adder"};
  const Bus a = m.add_input("a", width);
  const Bus b = m.add_input("b", width);
  const AddResult r = kogge_stone_add(m, a, b, cin ? kConst1 : kConst0);
  Bus out = r.sum;
  out.push_back(r.carry);
  m.add_output("o", out);
  return m;
}

}  // namespace

class FastAdderTest : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(FastAdderTest, MatchesArithmetic) {
  const auto [width, cin] = GetParam();
  Module m = kogge_stone_module(width, cin);
  Simulator sim{m};
  if (width <= 5) {
    for (std::uint64_t x = 0; x < (1u << width); ++x) {
      for (std::uint64_t y = 0; y < (1u << width); ++y) {
        ASSERT_EQ(sim.run({x, y}), x + y + (cin ? 1 : 0));
      }
    }
  } else {
    num::Xoshiro256 rng{static_cast<std::uint64_t>(width)};
    for (int it = 0; it < 4000; ++it) {
      const std::uint64_t x = rng.below(1ull << width), y = rng.below(1ull << width);
      ASSERT_EQ(sim.run({x, y}), x + y + (cin ? 1 : 0));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FastAdderTest,
                         ::testing::Combine(::testing::Values(1, 3, 4, 8, 15, 16, 24),
                                            ::testing::Bool()));

TEST(FastAdders, KoggeStoneIsLogDepthRippleIsLinear) {
  const auto depth = [](auto builder, int width) {
    Module m{"d"};
    const Bus a = m.add_input("a", width);
    const Bus b = m.add_input("b", width);
    auto r = builder(m, a, b);
    Bus out = r.sum;
    out.push_back(r.carry);
    m.add_output("o", out);
    return analyze_timing(m).logic_depth;
  };
  const auto ks = [](Module& m, const Bus& a, const Bus& b) {
    return kogge_stone_add(m, a, b, kConst0);
  };
  const auto rp = [](Module& m, const Bus& a, const Bus& b) {
    return ripple_add(m, a, b, kConst0);
  };
  EXPECT_LT(depth(ks, 32), depth(rp, 32) / 2);
  // KS depth grows ~log: doubling the width adds a couple of levels.
  EXPECT_LE(depth(ks, 32), depth(ks, 16) + 3);
}

TEST(FastAdders, KoggeStoneCostsMoreAreaThanRipple) {
  Module mr{"r"}, mk{"k"};
  const Bus ar = mr.add_input("a", 16), br = mr.add_input("b", 16);
  const Bus ak = mk.add_input("a", 16), bk = mk.add_input("b", 16);
  mr.add_output("o", ripple_add(mr, ar, br).sum);
  mk.add_output("o", kogge_stone_add(mk, ak, bk).sum);
  mr.prune();
  mk.prune();
  EXPECT_GT(mk.area_um2(), mr.area_um2());
}

TEST(CompressColumns, FoldsConstantOnes) {
  // Columns of pure constants must reduce with zero gates: 3 ones in column
  // 0 = value 3 = binary 11.
  Module m{"c"};
  std::vector<std::vector<NetId>> cols(4);
  cols[0] = {kConst1, kConst1, kConst1};
  const Bus out = compress_columns(m, std::move(cols), 4);
  Simulator sim{m};
  sim.eval();
  EXPECT_EQ(sim.read(out), 3u);
}

TEST(CompressColumns, MultiOperandAccumulation) {
  // Sum five 4-bit inputs through the compressor tree.
  Module m{"acc"};
  std::vector<Bus> ins;
  for (int i = 0; i < 5; ++i) {
    std::string port{"i"};
    port += std::to_string(i);
    ins.push_back(m.add_input(port, 4));
  }
  std::vector<std::vector<NetId>> cols(7);
  for (const auto& in : ins) {
    for (int bit = 0; bit < 4; ++bit) cols[static_cast<std::size_t>(bit)].push_back(in[static_cast<std::size_t>(bit)]);
  }
  m.add_output("o", compress_columns(m, std::move(cols), 7));
  Simulator sim{m};
  num::Xoshiro256 rng{7};
  for (int it = 0; it < 2000; ++it) {
    std::vector<std::uint64_t> vals(5);
    std::uint64_t expect = 0;
    for (auto& v : vals) {
      v = rng.below(16);
      expect += v;
    }
    ASSERT_EQ(sim.run(vals), expect);
  }
}

class AccurateArchTest : public ::testing::TestWithParam<int> {};

TEST_P(AccurateArchTest, AllArchitecturesAreExact) {
  const int n = GetParam();
  for (auto builder : {&build_accurate, &build_accurate_array, &build_accurate_booth}) {
    Module mod = builder(n);
    mod.prune();
    Simulator sim{mod};
    num::Xoshiro256 rng{static_cast<std::uint64_t>(n)};
    for (int it = 0; it < 3000; ++it) {
      const std::uint64_t a = rng.below(1ull << n), b = rng.below(1ull << n);
      ASSERT_EQ(sim.run({a, b}), a * b) << mod.name();
    }
    // Corners.
    const std::uint64_t mx = (1ull << n) - 1;
    EXPECT_EQ(sim.run({mx, mx}), mx * mx) << mod.name();
    EXPECT_EQ(sim.run({0, mx}), 0u) << mod.name();
    EXPECT_EQ(sim.run({1, mx}), mx) << mod.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AccurateArchTest, ::testing::Values(4, 7, 8, 12, 16));

TEST(AccurateArch, ArrayIsSlowerThanWallace) {
  const auto dw = analyze_timing(build_accurate(16)).critical_path_ps;
  const auto da = analyze_timing(build_accurate_array(16)).critical_path_ps;
  EXPECT_GT(da, 1.5 * dw);
}
