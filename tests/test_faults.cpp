#include "realm/hw/faults.hpp"

#include <gtest/gtest.h>

#include "realm/hw/circuits.hpp"
#include "realm/hw/bdd.hpp"
#include "realm/hw/components.hpp"

using namespace realm::hw;

TEST(Faults, SingleGateCircuitBothPolarities) {
  Module m{"and"};
  const Bus a = m.add_input("a", 2);
  m.add_output("o", {m.and2(a[0], a[1])});
  const auto r = analyze_fault_impact(m, 400, 1);
  EXPECT_EQ(r.sites_analyzed, 2u);
  // stuck-at-0 flips the (1,1) case (~25 % of vectors); stuck-at-1 flips the
  // other ~75 % — both detectable.
  EXPECT_EQ(r.sites_undetected, 0u);
  EXPECT_GT(r.mean_rel_error, 0.0);
}

TEST(Faults, RedundantLogicHidesFaults) {
  // o = (a&b) | (a&b) won't exist after strash; instead use a gate whose
  // output is masked: o = a & (a | b) — the OR's stuck-at-1 is invisible
  // whenever a = 0 already forces o = 0, but a=1 vectors expose... construct
  // a truly masked site: x = a & 0-feeding path eliminated by folding, so
  // build masking via mux: o = mux(a, a&b, a) -> when sel=1, the and-gate is
  // irrelevant; when sel=0 output is a&b with a=0 = 0 = stuck0.
  Module m{"masked"};
  const Bus in = m.add_input("a", 2);
  const NetId g = m.and2(in[0], in[1]);
  m.add_output("o", {m.mux(in[0], g, in[0])});
  const auto r = analyze_fault_impact(m, 500, 2);
  // The AND gate's stuck-at-0 never propagates: sel=0 -> output reads g, but
  // a=0 means g=0 anyway.
  EXPECT_GE(r.sites_undetected, 1u);
}

TEST(Faults, ReportShapesAndDeterminism) {
  const Module m = build_circuit("drum:k=4", 8);
  const auto r1 = analyze_fault_impact(m, 100, 7, 300);
  const auto r2 = analyze_fault_impact(m, 100, 7, 300);
  EXPECT_EQ(r1.sites_analyzed, 300u);
  EXPECT_EQ(r1.mean_rel_error, r2.mean_rel_error);
  EXPECT_EQ(r1.sites_undetected, r2.sites_undetected);
  ASSERT_LE(r1.worst_sites.size(), 10u);
  ASSERT_GE(r1.worst_sites.size(), 1u);
  // Sorted worst-first.
  for (std::size_t i = 1; i < r1.worst_sites.size(); ++i) {
    EXPECT_GE(r1.worst_sites[i - 1].mean_rel_error, r1.worst_sites[i].mean_rel_error);
  }
  EXPECT_GE(r1.worst_rel_error, r1.worst_sites.front().mean_rel_error);
}

TEST(Faults, MsbFaultsHurtMoreThanLsbFaults) {
  // In a bare adder, a stuck MSB-sum output dwarfs a stuck LSB one.
  Module m{"add"};
  const Bus a = m.add_input("a", 8);
  const Bus b = m.add_input("b", 8);
  const auto sum = ripple_add(m, a, b);
  Bus out = sum.sum;
  out.push_back(sum.carry);
  m.add_output("o", out);
  const auto r = analyze_fault_impact(m, 300, 3, 4000);
  // The top site should move the result by a large relative margin.
  EXPECT_GT(r.worst_rel_error, 0.3);
  EXPECT_LT(r.mean_rel_error, r.worst_rel_error);
}

TEST(Atpg, WallaceTreeIsFullyRandomPatternTestable) {
  // Multiplier partial-product/compressor logic has (almost) no redundancy;
  // the handful of resistant sites live in the top carry chain, where
  // sensitization needs near-maximal operands.
  Module m{"w6"};
  const Bus a = m.add_input("a", 6);
  const Bus b = m.add_input("b", 6);
  m.add_output("o", wallace_multiply(m, a, b));
  m.prune();
  const auto r = generate_tests(m, 1.0, 50000, 5);
  EXPECT_EQ(r.faults_total, 2 * m.gates().size());
  // Fault dropping compacts hard: far fewer patterns than detected faults.
  EXPECT_LT(r.patterns.size(), r.faults_detected / 4);
  EXPECT_GT(r.patterns.size(), 2u);
  // Completeness with a proof: every fault ATPG could not reach is shown
  // formally redundant (no test exists), so coverage of *testable* faults
  // is exactly 100 %.
  EXPECT_GE(r.coverage(), 0.97);
  for (const auto& site : r.undetected) {
    EXPECT_TRUE(is_fault_redundant(m, site))
        << "gate " << site.gate_index << " stuck-at-" << site.stuck_value;
  }
}

TEST(Atpg, DrumHasRandomPatternResistantFaults) {
  // The LOD/clamp/priority logic contains hard-to-sensitize (and some
  // genuinely redundant, hence untestable) sites — a classic DFT finding.
  const Module m = build_circuit("drum:k=4", 8);
  const auto r = generate_tests(m, 0.999, 8000, 5);
  EXPECT_GE(r.coverage(), 0.85);
  EXPECT_LT(r.coverage(), 0.999);  // the resistant tail is real
}

TEST(Atpg, PatternsActuallyDetectWhatTheyClaim) {
  // Independent re-check: re-simulate every fault site from scratch against
  // the generated pattern set and confirm the claimed coverage.
  Module m{"mini"};
  const Bus a = m.add_input("a", 4);
  const Bus b = m.add_input("b", 4);
  m.add_output("o", wallace_multiply(m, a, b));
  m.prune();
  const auto r = generate_tests(m, 1.0, 50000, 9);
  ASSERT_GT(r.patterns.size(), 0u);

  std::size_t redetected = 0;
  for (std::size_t gi = 0; gi < m.gates().size(); ++gi) {
    for (const bool stuck : {false, true}) {
      if (fault_detected(m, {gi, stuck}, r.patterns)) ++redetected;
    }
  }
  EXPECT_EQ(redetected, r.faults_detected);
  EXPECT_LE(r.faults_detected, r.faults_total);
}

TEST(Atpg, ValidatesArguments) {
  const Module m = build_circuit("drum:k=4", 8);
  EXPECT_THROW((void)generate_tests(m, 0.0), std::invalid_argument);
  EXPECT_THROW((void)generate_tests(m, 1.5), std::invalid_argument);
  EXPECT_THROW((void)generate_tests(m, 0.9, 0), std::invalid_argument);

  Module empty{"empty"};
  const Bus a = empty.add_input("a", 1);
  empty.add_output("o", a);
  EXPECT_THROW((void)generate_tests(empty), std::invalid_argument);
}

TEST(Atpg, FaultDetectedRejectsPatternsOfTheWrongLength) {
  Module m{"and"};
  const Bus a = m.add_input("a", 1);
  const Bus b = m.add_input("b", 1);
  m.add_output("o", {m.and2(a[0], b[0])});
  // One value for two ports used to drive port a only and leave b at 0.
  EXPECT_THROW((void)fault_detected(m, {0, true}, {{1}}), std::invalid_argument);
  EXPECT_THROW((void)fault_detected(m, {0, true}, {{1, 1, 0}}), std::invalid_argument);
  EXPECT_TRUE(fault_detected(m, {0, false}, {{1, 1}}));
}

TEST(Faults, RejectsUnsupportedModules) {
  Module empty{"empty"};
  const Bus a = empty.add_input("a", 1);
  empty.add_output("o", a);
  EXPECT_THROW((void)analyze_fault_impact(empty), std::invalid_argument);
}
