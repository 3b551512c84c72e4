// The central hardware integration test: every gate-level circuit must agree
// bit-for-bit with its behavioral model on random and structured vectors.

#include "realm/hw/circuits.hpp"

#include <gtest/gtest.h>

#include "realm/campaign/result_store.hpp"
#include "realm/hw/packed_simulator.hpp"
#include "realm/hw/simulator.hpp"
#include "realm/hw/timing.hpp"
#include "realm/hw/verilog.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/rng.hpp"

using namespace realm;

namespace {

std::vector<std::pair<std::uint64_t, std::uint64_t>> structured_vectors(int n) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> v;
  const std::uint64_t maxv = (std::uint64_t{1} << n) - 1;
  // Corners, powers of two, power-of-two neighbours, equal operands.
  for (const std::uint64_t a : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
                                std::uint64_t{3}, maxv, maxv - 1, maxv / 2}) {
    for (const std::uint64_t b : {std::uint64_t{0}, std::uint64_t{1}, maxv, maxv / 3}) {
      v.emplace_back(a, b);
    }
  }
  for (int k = 0; k < n; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    v.emplace_back(p, p);
    v.emplace_back(p, p - 1);
    v.emplace_back(p + (p >> 1), p + (p >> 1));  // x = 0.5 patterns
  }
  return v;
}

class CircuitEquivalenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CircuitEquivalenceTest, NetlistMatchesBehavioralModel) {
  const std::string spec = GetParam();
  const int n = 16;
  const auto model = mult::make_multiplier(spec, n);
  const hw::Module mod = hw::build_circuit(spec, n);
  hw::Simulator sim{mod};

  for (const auto& [a, b] : structured_vectors(n)) {
    ASSERT_EQ(sim.run({a, b}), model->multiply(a, b))
        << spec << " a=" << a << " b=" << b;
  }
  num::Xoshiro256 rng{0xC1C1u};
  for (int it = 0; it < 2500; ++it) {
    const std::uint64_t a = rng.below(65536), b = rng.below(65536);
    ASSERT_EQ(sim.run({a, b}), model->multiply(a, b))
        << spec << " a=" << a << " b=" << b;
  }
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    AllDesigns, CircuitEquivalenceTest,
    ::testing::Values("accurate", "calm", "mbm:t=0", "mbm:t=4", "mbm:t=9",
                      "alm-soa:m=3", "alm-soa:m=11", "alm-maa:m=6", "alm-maa:m=12",
                      "realm:m=16,t=0", "realm:m=16,t=8", "realm:m=8,t=4",
                      "realm:m=4,t=9", "implm", "drum:k=8", "drum:k=4", "ssm:m=10",
                      "ssm:m=8", "essm:m=8", "am1:nb=13", "am1:nb=5", "am2:nb=9",
                      "intalp:l=1", "intalp:l=2"));

TEST(Circuits, EquivalenceAtOtherWidths) {
  num::Xoshiro256 rng{0xD00Du};
  for (const int n : {8, 12}) {
    for (const char* spec : {"calm", "realm:m=4,t=0", "drum:k=4", "accurate"}) {
      const auto model = mult::make_multiplier(spec, n);
      const hw::Module mod = hw::build_circuit(spec, n);
      hw::Simulator sim{mod};
      const std::uint64_t range = std::uint64_t{1} << n;
      for (int it = 0; it < 1500; ++it) {
        const std::uint64_t a = rng.below(range), b = rng.below(range);
        ASSERT_EQ(sim.run({a, b}), model->multiply(a, b))
            << spec << " n=" << n << " a=" << a << " b=" << b;
      }
    }
  }
  // N = 2, the narrowest width both factories accept: all 16 pairs.
  const auto implm2 = mult::make_multiplier("implm", 2);
  const auto eq = hw::check_exhaustive_vs_model(hw::build_circuit("implm", 2), *implm2);
  EXPECT_EQ(eq.pairs_checked, 16u);
  EXPECT_TRUE(eq.equivalent()) << eq.mismatches << " mismatches";
}

TEST(Circuits, PruningPreservesFunction) {
  num::Xoshiro256 rng{0xBEEFu};
  hw::Module full = hw::build_circuit_unpruned("realm:m=8,t=2", 16);
  hw::Module pruned = hw::build_circuit("realm:m=8,t=2", 16);
  EXPECT_LE(pruned.gates().size(), full.gates().size());
  hw::Simulator s1{full}, s2{pruned};
  for (int it = 0; it < 2000; ++it) {
    const std::uint64_t a = rng.below(65536), b = rng.below(65536);
    ASSERT_EQ(s1.run({a, b}), s2.run({a, b}));
  }
}

TEST(Circuits, RealmLutGrowsWithM) {
  const double a4 = hw::build_circuit("realm:m=4,t=0", 16).area_um2();
  const double a8 = hw::build_circuit("realm:m=8,t=0", 16).area_um2();
  const double a16 = hw::build_circuit("realm:m=16,t=0", 16).area_um2();
  EXPECT_LT(a4, a8);
  EXPECT_LT(a8, a16);
}

TEST(Circuits, TruncationShrinksTheDatapath) {
  double prev = 1e18;
  for (const int t : {0, 3, 6, 9}) {
    const double a =
        hw::build_circuit("realm:m=8,t=" + std::to_string(t), 16).area_um2();
    EXPECT_LT(a, prev) << "t=" << t;
    prev = a;
  }
}

TEST(Circuits, PortShapesAreUniform) {
  for (const char* spec : {"accurate", "calm", "realm:m=16,t=0", "drum:k=6"}) {
    const hw::Module mod = hw::build_circuit(spec, 16);
    ASSERT_EQ(mod.inputs().size(), 2u) << spec;
    EXPECT_EQ(mod.inputs()[0].bus.size(), 16u);
    EXPECT_EQ(mod.inputs()[1].bus.size(), 16u);
    ASSERT_EQ(mod.outputs().size(), 1u);
    EXPECT_GE(mod.outputs()[0].bus.size(), 32u);
  }
}

TEST(Circuits, DispatchRejectsUnknownSpec) {
  EXPECT_THROW((void)hw::build_circuit("nonsense", 16), std::invalid_argument);
}

// Structural fingerprints of representative netlists, captured from the
// builders as they stand: any change to the gates a builder emits, to the
// cell areas, to the timing model or to the Verilog text shows up here.
TEST(Circuits, NetlistsArePinned) {
  struct Pin {
    const char* name;
    hw::Module mod;
    std::size_t gates;
    hw::NetId nets;
    double area_um2;
    double critical_path_ps;
    std::uint64_t verilog_fnv;
  };
  const Pin pins[] = {
      {"accurate", hw::build_circuit("accurate", 16),
       1452, 1487, 0x1.c300c49ba5e9ap+10, 0x1.56p+10, 0x788efd6990896afe},
      {"realm", hw::build_circuit("realm:m=16,t=0", 16),
       933, 990, 0x1.ea1ae147ae0f4p+9, 0x1.0acp+11, 0x058af79d2273ca11},
      {"drum", hw::build_circuit("drum:k=6", 16),
       590, 672, 0x1.3d9a9fbe76c82p+9, 0x1.9f8p+10, 0xc75ac908609c04b1},
      {"am1", hw::build_circuit("am1:nb=9", 16),
       728, 767, 0x1.d7e24dd2f1a82p+9, 0x1.c7p+9, 0xae5c938922962504},
      {"calm", hw::build_circuit("calm", 16),
       721, 776, 0x1.79522d0e56015p+9, 0x1.04p+11, 0x9464089f4be5602c},
      // Builders whose constants come from the behavioral model: the IntALP
      // residual planes and MBM's correction units.
      {"intalp", hw::build_circuit("intalp:l=2", 16),
       1485, 1602, 0x1.a3043958106afp+10, 0x1.5ccp+11, 0xab9e9c8630466b10},
      {"mbm", hw::build_circuit("mbm:t=0", 16),
       750, 807, 0x1.8a143958105ecp+9, 0x1.05p+11, 0x74243920cf9a8b63},
      {"alm-soa", hw::build_circuit("alm-soa:m=11", 16),
       580, 673, 0x1.28fd2f1a9fbeap+9, 0x1.71p+10, 0x7dcbce2a9f5465b2},
      {"alm-maa", hw::build_circuit("alm-maa:m=9", 16),
       689, 744, 0x1.63c666666664ap+9, 0x1.9ap+10, 0xd4c6ecde73c87b30},
      {"implm", hw::build_circuit("implm", 16),
       837, 894, 0x1.b8a10624dd2a2p+9, 0x1.f3p+10, 0x0ba7b1c306051730},
      {"ssm", hw::build_circuit("ssm:m=8", 16),
       418, 453, 0x1.f6353f7ced945p+8, 0x1.188p+10, 0xa8bd7c62f92d9086},
      {"essm", hw::build_circuit("essm:m=8", 16),
       494, 529, 0x1.23010624dd2f3p+9, 0x1.358p+10, 0x66a43df8b7473558},
      {"am2", hw::build_circuit("am2:nb=13", 16),
       682, 716, 0x1.accac083126cdp+9, 0x1.eap+9, 0x2fbc31f65901547b},
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(p.mod.gates().size(), p.gates) << p.name;
    EXPECT_EQ(p.mod.net_count(), p.nets) << p.name;
    EXPECT_EQ(p.mod.area_um2(), p.area_um2) << p.name;
    EXPECT_EQ(hw::analyze_timing(p.mod).critical_path_ps, p.critical_path_ps) << p.name;
    EXPECT_EQ(campaign::fnv1a64(hw::to_verilog(p.mod)), p.verilog_fnv) << p.name;
  }
}
