#include "realm/hw/simulator.hpp"

#include <gtest/gtest.h>

#include "realm/hw/components.hpp"
#include "realm/numeric/rng.hpp"

using namespace realm::hw;
namespace num = realm::num;

namespace {

Module xor_chain(int depth) {
  Module m{"xorchain"};
  const Bus in = m.add_input("a", 2);
  NetId cur = in[0];
  for (int i = 0; i < depth; ++i) cur = m.xor2(cur, in[1]);
  m.add_output("o", {cur});
  return m;
}

}  // namespace

TEST(Simulator, EvaluatesSimpleLogic) {
  Module m{"t"};
  const Bus a = m.add_input("a", 2);
  m.add_output("o", {m.nand2(a[0], a[1])});
  Simulator sim{m};
  EXPECT_EQ(sim.run({0b00}), 1u);
  EXPECT_EQ(sim.run({0b01}), 1u);
  EXPECT_EQ(sim.run({0b10}), 1u);
  EXPECT_EQ(sim.run({0b11}), 0u);
}

TEST(Simulator, TogglesCountFunctionalChangesOnly) {
  Module m{"t"};
  const Bus a = m.add_input("a", 1);
  (void)m.inv(a[0]);
  m.add_output("o", {m.inv(a[0])});  // strash: same gate
  Simulator sim{m};
  sim.set_input(0, 0);
  sim.eval();  // priming — not counted
  sim.set_input(0, 1);
  sim.eval();
  sim.set_input(0, 1);
  sim.eval();  // no change
  sim.set_input(0, 0);
  sim.eval();
  EXPECT_EQ(sim.toggles(0), 2u);
  EXPECT_EQ(sim.cycles(), 3u);
  sim.reset_activity();
  EXPECT_EQ(sim.cycles(), 0u);
}

TEST(Simulator, ReadArbitraryBus) {
  Module m{"t"};
  const Bus a = m.add_input("a", 4);
  const Bus sum = ripple_add(m, a, m.constant(3, 4)).sum;
  m.add_output("o", sum);
  Simulator sim{m};
  sim.set_input(0, 5);
  sim.eval();
  EXPECT_EQ(sim.read(sum), 8u);
}

TEST(Simulator, ErrorsOnBadIndices) {
  Module m{"t"};
  (void)m.add_input("a", 1);
  Simulator sim{m};
  EXPECT_THROW(sim.set_input(1, 0), std::out_of_range);
  EXPECT_THROW((void)sim.output(0), std::out_of_range);
  EXPECT_THROW((void)sim.toggles(0), std::out_of_range);
  EXPECT_THROW((void)sim.run({1, 2}), std::invalid_argument);
}

TEST(Simulator, RejectsValuesWiderThanThePort) {
  // Out-of-range stimulus used to be silently truncated to the bus width —
  // a masked caller bug.  It is now a hard error on every simulator.
  Module m{"t"};
  const Bus a = m.add_input("a", 4);
  m.add_output("o", {m.and2(a[0], a[3])});
  Simulator sim{m};
  EXPECT_THROW(sim.set_input(0, 0x10), std::invalid_argument);
  EXPECT_NO_THROW(sim.set_input(0, 0xF));
  TimedSimulator timed{m};
  EXPECT_THROW(timed.set_input(0, 0x10), std::invalid_argument);
}

TEST(TimedSimulator, SettlesToSameOutputsAsZeroDelay) {
  num::Xoshiro256 rng{17};
  Module m{"t"};
  const Bus a = m.add_input("a", 8);
  const Bus b = m.add_input("b", 8);
  m.add_output("p", wallace_multiply(m, a, b));
  Simulator fast{m};
  TimedSimulator timed{m};
  for (int it = 0; it < 500; ++it) {
    const std::uint64_t x = rng.below(256), y = rng.below(256);
    timed.set_input(0, x);
    timed.set_input(1, y);
    timed.settle();
    EXPECT_EQ(timed.output(0), fast.run({x, y}));
  }
}

TEST(TimedSimulator, CountsGlitchesBeyondFunctionalToggles) {
  // A reconvergent XOR chain hazards on input changes even when the final
  // value is unchanged-ish; total timed transitions must be >= functional.
  Module chain = xor_chain(16);
  Simulator fast{chain};
  TimedSimulator timed{chain};
  num::Xoshiro256 rng{21};
  std::uint64_t func = 0, glitchy = 0;
  std::uint64_t v = 0;
  fast.set_input(0, 0);
  fast.eval();
  timed.set_input(0, 0);
  timed.settle();
  for (int it = 0; it < 300; ++it) {
    v ^= rng.below(4);
    fast.set_input(0, v);
    fast.eval();
    timed.set_input(0, v);
    timed.settle();
  }
  for (std::size_t g = 0; g < chain.gates().size(); ++g) {
    func += fast.toggles(g);
    glitchy += timed.transitions(g);
  }
  EXPECT_GE(glitchy, func);
}

TEST(TimedSimulator, CarryChainProducesHazardCascade) {
  // 0xFF + 1: flipping the LSB ripples through the whole carry chain, so the
  // timed simulator must record at least width transitions.
  Module m{"t"};
  const Bus a = m.add_input("a", 8);
  const Bus b = m.add_input("b", 8);
  const auto r = ripple_add(m, a, b);
  Bus out = r.sum;
  out.push_back(r.carry);
  m.add_output("o", out);
  TimedSimulator sim{m};
  sim.set_input(0, 0xFF);
  sim.set_input(1, 0);
  sim.settle();
  sim.set_input(1, 1);
  sim.settle();
  EXPECT_EQ(sim.output(0), 0x100u);
  std::uint64_t total = 0;
  for (std::size_t g = 0; g < m.gates().size(); ++g) total += sim.transitions(g);
  EXPECT_GE(total, 16u);
}
