#include "realm/hw/bdd.hpp"

#include <gtest/gtest.h>

#include "realm/hw/circuits.hpp"
#include "realm/hw/components.hpp"
#include "realm/hw/simulator.hpp"
#include "realm/multipliers/registry.hpp"

using namespace realm::hw;

TEST(BddManager, BasicAlgebra) {
  BddManager mgr;
  const auto x = mgr.var(0);
  const auto y = mgr.var(1);
  EXPECT_EQ(mgr.bdd_and(x, x), x);
  EXPECT_EQ(mgr.bdd_or(x, mgr.bdd_not(x)), BddManager::kTrue);
  EXPECT_EQ(mgr.bdd_and(x, mgr.bdd_not(x)), BddManager::kFalse);
  EXPECT_EQ(mgr.bdd_xor(x, x), BddManager::kFalse);
  // Canonicity: same function built two ways is the same node.
  const auto de_morgan_a = mgr.bdd_not(mgr.bdd_and(x, y));
  const auto de_morgan_b = mgr.bdd_or(mgr.bdd_not(x), mgr.bdd_not(y));
  EXPECT_EQ(de_morgan_a, de_morgan_b);
}

TEST(BddManager, EvalAndCounting) {
  BddManager mgr;
  const auto x = mgr.var(0);
  const auto y = mgr.var(1);
  const auto z = mgr.var(2);
  const auto f = mgr.bdd_or(mgr.bdd_and(x, y), z);  // xy + z
  EXPECT_TRUE(mgr.eval(f, {true, true, false}));
  EXPECT_TRUE(mgr.eval(f, {false, false, true}));
  EXPECT_FALSE(mgr.eval(f, {true, false, false}));
  EXPECT_EQ(mgr.count_sat(f, 3), 5u);  // xy (2 assignments of z? no: xy+z true in 5/8)
  EXPECT_EQ(mgr.count_sat(BddManager::kTrue, 3), 8u);
  EXPECT_EQ(mgr.count_sat(BddManager::kFalse, 3), 0u);
}

TEST(BddManager, AnySatFindsWitness) {
  BddManager mgr;
  const auto f = mgr.bdd_and(mgr.var(0), mgr.bdd_not(mgr.var(2)));
  const auto sat = mgr.any_sat(f, 3);
  ASSERT_TRUE(sat.has_value());
  EXPECT_TRUE(mgr.eval(f, *sat));
  EXPECT_FALSE(mgr.any_sat(BddManager::kFalse, 3).has_value());
}

TEST(BddManager, NodeLimitThrows) {
  BddManager mgr{8};
  EXPECT_THROW(
      {
        BddManager::Ref f = mgr.var(0);
        for (int i = 1; i < 20; ++i) f = mgr.bdd_xor(f, mgr.var(i));
      },
      std::runtime_error);
}

namespace {

Module adder_with(AdderArch arch, int width) {
  Module m{"adder"};
  const Bus a = m.add_input("a", width);
  const Bus b = m.add_input("b", width);
  auto r = add_with_arch(m, a, b, arch);
  Bus out = r.sum;
  out.push_back(r.carry);
  m.add_output("o", out);
  m.prune();
  return m;
}

}  // namespace

TEST(Equivalence, AllAdderArchitecturesAreFormallyEquivalent) {
  for (const int width : {8, 16, 24}) {
    const Module ripple = adder_with(AdderArch::kRipple, width);
    const Module ks = adder_with(AdderArch::kKoggeStone, width);
    EXPECT_TRUE(check_equivalence(ripple, ks).equivalent) << width;
  }
}

TEST(Equivalence, AccurateMultiplierArchitecturesProvenEqual) {
  // 8×8 multiplication is BDD-feasible with the interleaved order; this is a
  // *proof* over all 65536 input pairs, not a sample.
  Module wallace = build_accurate(8);
  Module array = build_accurate_array(8);
  Module booth = build_accurate_booth(8);
  wallace.prune();
  array.prune();
  booth.prune();
  EXPECT_TRUE(check_equivalence(wallace, array).equivalent);
  EXPECT_TRUE(check_equivalence(wallace, booth).equivalent);
}

TEST(Equivalence, PruningFormallyPreservesFunction) {
  // Circuits.PruningPreservesFunction samples this property at 16 bits; here
  // it is proved over the whole 6-bit input space for Table I designs.
  for (const char* spec : {"calm", "realm:m=4,t=0", "drum:k=4"}) {
    const Module pruned = build_circuit(spec, 6);
    const Module full = build_circuit_unpruned(spec, 6);
    EXPECT_LT(pruned.gates().size(), full.gates().size()) << spec;
    EXPECT_TRUE(check_equivalence(pruned, full).equivalent) << spec;
  }
}

TEST(Equivalence, InequivalenceYieldsAVerifiedCounterexample) {
  const Module calm = build_circuit("calm", 6);
  const Module exact = build_circuit("accurate", 6);
  const auto r = check_equivalence(calm, exact);
  ASSERT_FALSE(r.equivalent);
  ASSERT_EQ(r.counterexample.size(), 2u);
  // The counterexample must actually distinguish the circuits.
  Simulator sa{calm}, sb{exact};
  EXPECT_NE(sa.run(r.counterexample), sb.run(r.counterexample));
}

TEST(Equivalence, PruningIsFormallySound) {
  const Module pruned = build_circuit("realm:m=4,t=2", 8);
  const Module unpruned = build_circuit_unpruned("realm:m=4,t=2", 8);
  EXPECT_TRUE(check_equivalence(pruned, unpruned).equivalent);
}

TEST(Equivalence, RejectsMismatchedShapes) {
  const Module a = build_circuit("calm", 8);
  const Module b = build_circuit("calm", 10);
  EXPECT_THROW((void)check_equivalence(a, b), std::invalid_argument);
}

TEST(ModuleBdds, CountSatRecoversArithmeticFacts) {
  // Carry-out of a 4-bit adder: #{(a,b) : a+b >= 16} = 120.
  Module m{"add4"};
  const Bus a = m.add_input("a", 4);
  const Bus b = m.add_input("b", 4);
  m.add_output("o", Bus{ripple_add(m, a, b).carry});
  BddManager mgr;
  const auto bdds = build_bdds(mgr, m);
  EXPECT_EQ(mgr.count_sat(bdds.outputs[0][0], bdds.num_vars), 120u);
}
