#include "realm/hw/netlist.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "realm/hw/simulator.hpp"

using namespace realm::hw;

TEST(Netlist, ConstantRailsAreReserved) {
  Module m{"t"};
  EXPECT_EQ(m.net_count(), 2u);
  EXPECT_EQ(m.inv(kConst0), kConst1);
  EXPECT_EQ(m.inv(kConst1), kConst0);
  EXPECT_EQ(m.net_count(), 2u);  // folding created no gates
}

// The scalar and packed simulators and the BDD engine all evaluate through
// gate_value(), so only this table checks it independently.
TEST(Netlist, GateValueTruthTable) {
  // Bit i of each row is the output for pins (a, b, c) = bits 0, 1, 2 of i.
  constexpr std::array<std::pair<GateKind, unsigned>, kGateKindCount> kTruth{{
      {GateKind::kInv, 0x55},
      {GateKind::kBuf, 0xAA},
      {GateKind::kAnd2, 0x88},
      {GateKind::kOr2, 0xEE},
      {GateKind::kNand2, 0x77},
      {GateKind::kNor2, 0x11},
      {GateKind::kXor2, 0x66},
      {GateKind::kXnor2, 0x99},
      {GateKind::kMux2, 0xCA},  // (d0, d1, sel): sel ? d1 : d0
  }};
  static_assert((gate_value<std::uint8_t>(GateKind::kMux2, 0, 1, 1) & 1u) == 1u);

  // 64-lane words: lane l carries input combination l % 8.
  std::uint64_t wa = 0, wb = 0, wc = 0;
  for (unsigned l = 0; l < 64; ++l) {
    wa |= std::uint64_t{l & 1u} << l;
    wb |= std::uint64_t{(l >> 1) & 1u} << l;
    wc |= std::uint64_t{(l >> 2) & 1u} << l;
  }
  for (const auto& [kind, truth] : kTruth) {
    for (unsigned i = 0; i < 8; ++i) {
      const auto bit = [i](unsigned pin) {
        return static_cast<std::uint8_t>((i >> pin) & 1u);
      };
      EXPECT_EQ(gate_value(kind, bit(0), bit(1), bit(2)) & 1u, (truth >> i) & 1u)
          << cell_spec(kind).name << " inputs " << i;
    }
    const std::uint64_t word = gate_value(kind, wa, wb, wc);
    for (unsigned l = 0; l < 64; ++l) {
      EXPECT_EQ((word >> l) & 1u, (truth >> (l % 8)) & 1u)
          << cell_spec(kind).name << " lane " << l;
    }
  }
}

// Every 1- and 2-input cell folds once its pins carry at most one distinct
// non-constant net x (none for a 1-input cell).  Each string holds the
// expected result per pin pattern: '0'/'1' a rail, 'x' the net itself, '~'
// one new inverter of x, 'g' one new gate of the kind on x.
TEST(Netlist, ConstantFoldingIdentities) {
  enum Pin { k0, k1, kX };
  constexpr std::array<std::pair<Pin, Pin>, 9> kPatterns{{{k0, kX}, {kX, k0}, {k1, kX},
                                                          {kX, k1}, {kX, kX}, {k0, k0},
                                                          {k0, k1}, {k1, k0}, {k1, k1}}};
  constexpr std::array<std::pair<GateKind, const char*>, 8> kFolds{{
      {GateKind::kInv, "10g"},  // one pin: 0, 1, x
      {GateKind::kBuf, "01g"},
      {GateKind::kAnd2, "00xxx0001"},
      {GateKind::kOr2, "xx11x0111"},
      {GateKind::kNand2, "11~~~1110"},
      {GateKind::kNor2, "~~00~1000"},
      {GateKind::kXor2, "xx~~00110"},
      {GateKind::kXnor2, "~~xx11001"},
  }};
  for (const auto& [kind, expect] : kFolds) {
    const bool unary = cell_spec(kind).fanin == 1;
    for (std::size_t i = 0; expect[i] != '\0'; ++i) {
      Module m{"t"};
      const NetId x = m.add_input("x", 1)[0];
      const auto net = [x](Pin p) { return p == k0 ? kConst0 : p == k1 ? kConst1 : x; };
      const auto [pa, pb] = kPatterns[i];
      const NetId out = unary ? m.gate(kind, net(static_cast<Pin>(i)))
                              : m.gate(kind, net(pa), net(pb));
      const std::string where = std::string{cell_spec(kind).name} + " pattern " +
                                std::to_string(i);
      const char e = expect[i];
      if (e == '~' || e == 'g') {
        ASSERT_EQ(m.gates().size(), 1u) << where;
        const Gate& g = m.gates()[0];
        EXPECT_EQ(g.out, out) << where;
        EXPECT_EQ(g.kind, e == '~' ? GateKind::kInv : kind) << where;
        EXPECT_EQ(g.in[0], x) << where;
      } else {
        EXPECT_EQ(out, e == '0' ? kConst0 : e == '1' ? kConst1 : x) << where;
        EXPECT_EQ(m.gates().size(), 0u) << where;
      }
    }
  }

  Module m{"t"};
  const auto a = m.add_input("a", 1)[0];
  EXPECT_EQ(m.mux(kConst0, a, kConst1), a);
  EXPECT_EQ(m.mux(kConst1, a, kConst1), kConst1);
  EXPECT_EQ(m.mux(a, kConst0, kConst1), a);  // mux(s,0,1) = s
  EXPECT_EQ(m.gates().size(), 0u);
}

TEST(Netlist, FoldedMuxWithConstDataUsesCheaperGates) {
  Module m{"t"};
  const auto s = m.add_input("s", 1)[0];
  const auto d = m.add_input("d", 1)[0];
  (void)m.mux(s, kConst0, d);  // = and(s, d)
  ASSERT_EQ(m.gates().size(), 1u);
  EXPECT_EQ(m.gates()[0].kind, GateKind::kAnd2);
}

TEST(Netlist, StructuralHashingSharesIdenticalGates) {
  Module m{"t"};
  const auto a = m.add_input("a", 1)[0];
  const auto b = m.add_input("b", 1)[0];
  const NetId x = m.and2(a, b);
  const NetId y = m.and2(a, b);
  const NetId z = m.and2(b, a);  // commutative canonicalization
  EXPECT_EQ(x, y);
  EXPECT_EQ(x, z);
  EXPECT_EQ(m.gates().size(), 1u);
  // Different kind or operands create fresh gates.
  EXPECT_NE(m.or2(a, b), x);
  EXPECT_EQ(m.gates().size(), 2u);
}

TEST(Netlist, PruneRemovesOnlyDeadCone) {
  Module m{"t"};
  const auto a = m.add_input("a", 1)[0];
  const auto b = m.add_input("b", 1)[0];
  const NetId live = m.xor2(a, b);
  (void)m.and2(m.or2(a, b), b);  // dead cone of 2 gates
  m.add_output("o", {live});
  EXPECT_EQ(m.gates().size(), 3u);
  EXPECT_EQ(m.prune(), 2u);
  ASSERT_EQ(m.gates().size(), 1u);
  EXPECT_EQ(m.gates()[0].out, live);
  // Simulation still works after pruning.
  Simulator sim{m};
  EXPECT_EQ(sim.run({1, 0}), 1u);
  EXPECT_EQ(sim.run({1, 1}), 0u);
}

TEST(Netlist, AreaAccumulatesCellAreas) {
  Module m{"t"};
  const auto a = m.add_input("a", 1)[0];
  const auto b = m.add_input("b", 1)[0];
  (void)m.and2(a, b);
  (void)m.xor2(a, b);
  EXPECT_DOUBLE_EQ(m.area_um2(), cell_spec(GateKind::kAnd2).area_um2 +
                                     cell_spec(GateKind::kXor2).area_um2);
}

TEST(Netlist, HistogramCountsPerKind) {
  Module m{"t"};
  const auto a = m.add_input("a", 2);
  (void)m.and2(a[0], a[1]);
  (void)m.nand2(a[0], a[1]);
  (void)m.inv(m.or2(a[0], a[1]));
  const auto h = m.gate_histogram();
  EXPECT_EQ(h[static_cast<int>(GateKind::kAnd2)], 1u);
  EXPECT_EQ(h[static_cast<int>(GateKind::kNand2)], 1u);
  EXPECT_EQ(h[static_cast<int>(GateKind::kOr2)], 1u);
  EXPECT_EQ(h[static_cast<int>(GateKind::kInv)], 1u);
}

TEST(Netlist, RejectsForwardReferencesAndBadPorts) {
  Module m{"t"};
  EXPECT_THROW((void)m.and2(57, kConst0), std::invalid_argument);
  EXPECT_THROW((void)m.add_input("w", 0), std::invalid_argument);
  EXPECT_THROW(m.add_output("o", {99}), std::invalid_argument);
  EXPECT_THROW((void)m.constant(0, 65), std::invalid_argument);
}

TEST(Netlist, ConstantBusBits) {
  Module m{"t"};
  const Bus c = m.constant(0b1011, 4);
  EXPECT_EQ(c[0], kConst1);
  EXPECT_EQ(c[1], kConst1);
  EXPECT_EQ(c[2], kConst0);
  EXPECT_EQ(c[3], kConst1);
}

TEST(Netlist, InputNetTracking) {
  Module m{"t"};
  const auto a = m.add_input("a", 3);
  const NetId g = m.and2(a[0], a[1]);
  ASSERT_EQ(m.inputs().size(), 1u);
  EXPECT_EQ(m.inputs()[0].name, "a");
  EXPECT_EQ(m.inputs()[0].bus, a);
  EXPECT_EQ(m.net_count(), 6u);  // two rails, three input bits, one gate
  EXPECT_EQ(g, 5u);
}
