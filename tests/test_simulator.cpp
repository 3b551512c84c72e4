#include "realm/hw/simulator.hpp"

#include <gtest/gtest.h>

#include "realm/hw/components.hpp"

using namespace realm::hw;

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
}
