// Sequential substrate: registers, the clocked simulator, the pipelined
// REALM, and a MAC with a register feedback loop.

#include <gtest/gtest.h>

#include "realm/hw/circuits.hpp"
#include "realm/hw/components.hpp"
#include "realm/hw/packed_simulator.hpp"
#include "realm/hw/power.hpp"
#include "realm/hw/simulator.hpp"
#include "realm/hw/timing.hpp"
#include "realm/hw/verilog.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/rng.hpp"

using namespace realm::hw;
namespace num = realm::num;

TEST(Sequential, RegisterDelaysByOneCycle) {
  Module m{"dff"};
  const Bus a = m.add_input("a", 4);
  m.add_output("o", m.add_register_bus(a));
  Simulator sim{m};
  sim.set_input(0, 0x5);
  sim.step();
  EXPECT_EQ(sim.output(0), 0x5u);  // after the edge, Q holds the old D
  sim.set_input(0, 0xA);
  sim.eval();
  EXPECT_EQ(sim.output(0), 0x5u);  // before the next edge: still old value
  sim.step();
  EXPECT_EQ(sim.output(0), 0xAu);
}

TEST(Sequential, ResetClearsState) {
  Module m{"dff"};
  const Bus a = m.add_input("a", 4);
  m.add_output("o", m.add_register_bus(a));
  Simulator sim{m};
  sim.set_input(0, 0xF);
  sim.step();
  EXPECT_EQ(sim.output(0), 0xFu);
  sim.reset_registers();
  EXPECT_EQ(sim.output(0), 0x0u);
  EXPECT_EQ(sim.cycles(), 0u);
}

TEST(Sequential, AccumulatorFeedbackLoop) {
  // acc' = acc + a: the register feeds its own input cone.
  Module m{"acc"};
  const Bus a = m.add_input("a", 8);
  Bus acc_q(12);
  for (auto& q : acc_q) q = m.add_register();
  const Bus next = ripple_add(m, acc_q, resize(a, 12)).sum;
  for (std::size_t i = 0; i < acc_q.size(); ++i) m.connect_register(acc_q[i], next[i]);
  m.add_output("o", acc_q);

  Simulator sim{m};
  std::uint64_t expect = 0;
  num::Xoshiro256 rng{3};
  for (int cycle = 0; cycle < 50; ++cycle) {
    const std::uint64_t v = rng.below(256);
    sim.set_input(0, v);
    sim.step();
    expect = (expect + v) & 0xFFF;
    ASSERT_EQ(sim.output(0), expect) << cycle;
  }
}

TEST(Sequential, CombinationalSimulatorsRejectRegisters) {
  Module m{"dff"};
  const Bus a = m.add_input("a", 1);
  m.add_output("o", {m.add_register(a[0])});
  EXPECT_THROW(TimedSimulator{m}, std::invalid_argument);
  EXPECT_THROW(PackedSimulator{m}, std::invalid_argument);
  EXPECT_THROW((void)to_verilog_testbench(m), std::invalid_argument);
  EXPECT_THROW((void)estimate_power(m), std::invalid_argument);
}

TEST(PipelinedRealm, OneCycleLatencyMatchesTheBehavioralModel) {
  const auto model = realm::mult::make_multiplier("realm:m=8,t=2", 16);
  realm::core::RealmConfig cfg;
  cfg.m = 8;
  cfg.t = 2;
  Module mod = build_realm_pipelined(cfg);
  ASSERT_TRUE(mod.is_sequential());

  Simulator sim{mod};
  num::Xoshiro256 rng{11};
  for (int cycle = 0; cycle < 4000; ++cycle) {
    const std::uint64_t a = rng.below(65536), b = rng.below(65536);
    sim.set_input(0, a);
    sim.set_input(1, b);
    sim.step();                  // edge: stage-1 results of (a, b) latch
    sim.eval();  // stage 2 evaluates the registered values
    ASSERT_EQ(sim.output(0), model->multiply(a, b))
        << "cycle " << cycle << " a=" << a << " b=" << b;
  }
}

TEST(PipelinedRealm, CutsTheCriticalPathMeaningfully) {
  realm::core::RealmConfig cfg;
  cfg.m = 16;
  const auto comb = analyze_timing(build_realm(cfg));
  const auto pipe = analyze_timing(build_realm_pipelined(cfg));
  // The final-scale stage dominates, so the cut is real but not a halving.
  EXPECT_LT(pipe.critical_path_ps, 0.85 * comb.critical_path_ps);
}

TEST(PipelinedRealm, RegistersShowUpInAreaAndVerilog) {
  realm::core::RealmConfig cfg;
  cfg.m = 4;
  Module pipe = build_realm_pipelined(cfg);
  Module comb = build_realm(cfg);
  comb.prune();
  EXPECT_GT(pipe.registers().size(), 10u);
  EXPECT_GT(pipe.area_um2(), comb.area_um2());  // DFFs cost area
  const std::string v = to_verilog(pipe);
  EXPECT_NE(v.find("input clk"), std::string::npos);
  EXPECT_NE(v.find("DFF_X1"), std::string::npos);
}

TEST(Sequential, InstantiatePreservesRegisters) {
  // A module embedding a registered sub-module stays sequential and correct.
  Module sub{"delay"};
  const Bus d = sub.add_input("d", 4);
  sub.add_output("q", sub.add_register_bus(d));

  Module top{"top"};
  const Bus a = top.add_input("a", 4);
  auto outs = top.instantiate(sub, {a});
  top.add_output("o", outs[0]);
  EXPECT_TRUE(top.is_sequential());

  Simulator sim{top};
  sim.set_input(0, 9);
  sim.step();
  EXPECT_EQ(sim.output(0), 9u);
}
