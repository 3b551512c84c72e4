#include "realm/hw/packed_simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "realm/hw/circuits.hpp"
#include "realm/hw/power.hpp"
#include "realm/hw/simulator.hpp"
#include "realm/multipliers/am.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/bits.hpp"
#include "realm/numeric/rng.hpp"

using namespace realm;
using namespace realm::hw;
namespace num = realm::num;

namespace {

// Registered circuit specs with distinct gate mixes (Wallace trees, LOD
// chains, muxes, truncation) — the packed engine must agree with the scalar
// Simulator on every one of them.
const std::vector<const char*>& circuit_specs() {
  static const std::vector<const char*> specs = {
      "accurate",      "calm",     "mbm:t=0",  "realm:m=16,t=0",
      "realm:m=4,t=9", "drum:k=6", "ssm:m=8",  "essm:m=8",
      "am1:nb=9",      "intalp:l=2", "implm"};
  return specs;
}

// Gate-level products of the pairs (a[i], b[i]), 64 pairs per packed sweep.
std::vector<std::uint64_t> netlist_products(const Module& mod,
                                            const std::vector<std::uint64_t>& a,
                                            const std::vector<std::uint64_t>& b) {
  PackedSimulator sim{mod};
  std::vector<std::uint64_t> p(a.size());
  for (std::size_t base = 0; base < a.size(); base += PackedSimulator::kLanes) {
    const auto lanes = static_cast<unsigned>(
        std::min<std::size_t>(PackedSimulator::kLanes, a.size() - base));
    sim.set_input_lanes(0, a.data() + base, lanes);
    sim.set_input_lanes(1, b.data() + base, lanes);
    sim.eval();
    for (unsigned l = 0; l < lanes; ++l) p[base + l] = sim.output(0, l);
  }
  return p;
}

// multiply_batch over the pairs in consecutive calls of `batch` pairs (the
// last one ragged), so every lane-tail shape of the kernel runs.  Returns the
// number of products that differ from `expect`.
std::uint64_t batch_mismatches(const Multiplier& model, const std::vector<std::uint64_t>& a,
                               const std::vector<std::uint64_t>& b,
                               const std::vector<std::uint64_t>& expect, std::size_t batch) {
  std::vector<std::uint64_t> out(a.size(), ~std::uint64_t{0});
  for (std::size_t i0 = 0; i0 < a.size(); i0 += batch) {
    model.multiply_batch(a.data() + i0, b.data() + i0, out.data() + i0,
                         std::min(batch, a.size() - i0));
  }
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < out.size(); ++i) bad += out[i] != expect[i];
  return bad;
}

constexpr std::size_t kBatchLengths[] = {1, 7, 8, 9, 4099};

// The spec of the AM design with nb recovered columns.
std::string am_spec(mult::AmVariant variant, int nb) {
  return (variant == mult::AmVariant::kAm1 ? "am1:nb=" : "am2:nb=") + std::to_string(nb);
}

}  // namespace

TEST(PackedSimulator, LanesMatchScalarOnEveryRegisteredCircuit) {
  for (const char* spec : circuit_specs()) {
    const Module mod = build_circuit(spec, 16);
    PackedSimulator packed{mod};
    Simulator scalar{mod};
    num::Xoshiro256 rng{0xBEEF};
    std::uint64_t a[PackedSimulator::kLanes];
    std::uint64_t b[PackedSimulator::kLanes];
    for (unsigned l = 0; l < PackedSimulator::kLanes; ++l) {
      a[l] = rng.below(65536);
      b[l] = rng.below(65536);
    }
    packed.set_input_lanes(0, a, PackedSimulator::kLanes);
    packed.set_input_lanes(1, b, PackedSimulator::kLanes);
    packed.eval();
    for (unsigned l = 0; l < PackedSimulator::kLanes; ++l) {
      EXPECT_EQ(packed.output(0, l), scalar.run({a[l], b[l]}))
          << spec << " lane " << l;
      // Spot-check the internal nets too, not just the product.
      if (l == 0 || l == 31 || l == 63) {
        for (const Gate& g : mod.gates()) {
          EXPECT_EQ((packed.word(g.out) >> l) & 1u, scalar.read({g.out}))
              << spec << " lane " << l << " net " << g.out;
        }
      }
    }
  }
}

TEST(PackedSimulator, WordSetterAgreesWithLaneSetter) {
  const Module mod = build_circuit("realm:m=4,t=0", 8);
  PackedSimulator by_lane{mod}, by_word{mod};
  const std::uint64_t a = 0xA5, b = 0x3C;
  const std::vector<std::uint64_t> as(PackedSimulator::kLanes, a), bs(PackedSimulator::kLanes, b);
  by_lane.set_input_lanes(0, as.data(), PackedSimulator::kLanes);
  by_lane.set_input_lanes(1, bs.data(), PackedSimulator::kLanes);
  for (std::size_t i = 0; i < 8; ++i) {
    by_word.set_input_word(0, i, ((a >> i) & 1u) ? ~std::uint64_t{0} : 0);
    by_word.set_input_word(1, i, ((b >> i) & 1u) ? ~std::uint64_t{0} : 0);
  }
  by_lane.eval();
  by_word.eval();
  for (const Gate& g : mod.gates()) EXPECT_EQ(by_lane.word(g.out), by_word.word(g.out));
}

TEST(PackedSimulator, SetInputLanesZeroesLanesPastTheCount) {
  const Module mod = build_circuit("accurate", 8);
  PackedSimulator sim{mod};
  const std::vector<std::uint64_t> full(PackedSimulator::kLanes, 0xFF);
  sim.set_input_lanes(0, full.data(), PackedSimulator::kLanes);
  const std::uint64_t three[] = {0x01, 0x80, 0x5A};
  sim.set_input_lanes(0, three, 3);
  const Bus& a = mod.inputs()[0].bus;
  for (unsigned l = 0; l < 3; ++l) EXPECT_EQ(sim.read(a, l), three[l]) << "lane " << l;
  for (unsigned l = 3; l < PackedSimulator::kLanes; ++l) {
    EXPECT_EQ(sim.read(a, l), 0u) << "lane " << l;
  }
}

TEST(PackedSimulator, RejectsBadArguments) {
  const Module mod = build_circuit("accurate", 8);
  PackedSimulator sim{mod};
  const std::uint64_t zero = 0, wide = 0x100;
  EXPECT_THROW(sim.set_input_lanes(2, &zero, 1), std::out_of_range);
  EXPECT_THROW(sim.set_input_lanes(0, &wide, 1), std::invalid_argument);
  const std::vector<std::uint64_t> too_many(PackedSimulator::kLanes + 1, 0);
  EXPECT_THROW(sim.set_input_lanes(0, too_many.data(), PackedSimulator::kLanes + 1),
               std::invalid_argument);
  EXPECT_THROW(sim.set_input_word(0, 8, 0), std::out_of_range);
  EXPECT_THROW(sim.eval_cycles(0), std::invalid_argument);
  EXPECT_THROW(sim.eval_cycles(65), std::invalid_argument);
  EXPECT_THROW((void)sim.output(1, 0), std::out_of_range);
  EXPECT_THROW((void)sim.output(0, 64), std::out_of_range);
}

TEST(PackedSimulator, TimePackedTogglesMatchScalarExactly) {
  // Feed the identical 157-cycle stimulus stream to both engines; the packed
  // one consumes it in uneven chunks (cross-word boundary bits included).
  const Module mod = build_circuit("realm:m=16,t=0", 16);
  Simulator scalar{mod};
  PackedSimulator packed{mod};
  num::Xoshiro256 rng{7};
  std::vector<std::uint64_t> as, bs;
  for (int i = 0; i < 157; ++i) {
    as.push_back(rng.below(65536));
    bs.push_back(rng.below(65536));
  }
  for (std::size_t i = 0; i < as.size(); ++i) {
    scalar.set_input(0, as[i]);
    scalar.set_input(1, bs[i]);
    scalar.eval();
  }
  const unsigned chunks[] = {64, 1, 30, 62};
  std::size_t at = 0;
  for (const unsigned lanes : chunks) {
    packed.set_input_lanes(0, as.data() + at, lanes);
    packed.set_input_lanes(1, bs.data() + at, lanes);
    at += lanes;
    packed.eval_cycles(lanes);
  }
  ASSERT_EQ(at, as.size());
  EXPECT_EQ(packed.cycles(), scalar.cycles());
  for (std::size_t g = 0; g < mod.gates().size(); ++g) {
    EXPECT_EQ(packed.toggles(g), scalar.toggles(g)) << "gate " << g;
  }
  packed.reset_activity();
  EXPECT_EQ(packed.cycles(), 0u);
  EXPECT_EQ(packed.toggles(0), 0u);
}

TEST(PackedPower, BitIdenticalToScalarReferenceForAnyThreadCount) {
  for (const char* spec : {"accurate", "realm:m=16,t=0", "drum:k=6"}) {
    const Module mod = build_circuit(spec, 16);
    StimulusProfile p;
    p.cycles = 3000;  // spans several 1024-cycle blocks, plus a partial one
    p.threads = 1;
    const auto ref = estimate_power_reference(mod, p);
    const auto one = estimate_power(mod, p);
    p.threads = 3;
    const auto many = estimate_power(mod, p);
    EXPECT_EQ(ref.dynamic, one.dynamic) << spec;
    EXPECT_EQ(ref.leakage, one.leakage) << spec;
    EXPECT_EQ(one.dynamic, many.dynamic) << spec;
    EXPECT_EQ(one.leakage, many.leakage) << spec;
  }
}

TEST(Equivalence, Exhaustive8x8RealmCircuitMatchesModel) {
  const Module mod = build_circuit("realm:m=4,t=0", 8);
  const auto model = mult::make_multiplier("realm:m=4,t=0", 8);
  const auto r = check_exhaustive_vs_model(mod, *model);
  EXPECT_EQ(r.pairs_checked, 65536u);
  EXPECT_TRUE(r.equivalent()) << r.mismatches << " mismatches";
}

TEST(Equivalence, ThreadCountNeverChangesTheResult) {
  // Force a disagreement so mismatch counts and recorded examples are
  // non-trivial, then check thread invariance on them.
  const Module mod = build_circuit("realm:m=4,t=0", 8);
  const auto exact = mult::make_multiplier("accurate", 8);
  const auto one = check_exhaustive_vs_model(mod, *exact, 1);
  const auto many = check_exhaustive_vs_model(mod, *exact, 4);
  EXPECT_GT(one.mismatches, 0u);  // REALM is approximate; it must differ
  EXPECT_EQ(one.pairs_checked, many.pairs_checked);
  EXPECT_EQ(one.mismatches, many.mismatches);
  ASSERT_EQ(one.examples.size(), many.examples.size());
  for (std::size_t i = 0; i < one.examples.size(); ++i) {
    EXPECT_EQ(one.examples[i].a, many.examples[i].a);
    EXPECT_EQ(one.examples[i].b, many.examples[i].b);
    EXPECT_EQ(one.examples[i].circuit, many.examples[i].circuit);
    EXPECT_EQ(one.examples[i].model, many.examples[i].model);
  }
}

TEST(Equivalence, RandomCheckAgreesOnRegisteredCircuits) {
  for (const char* spec : {"accurate", "realm:m=16,t=0", "drum:k=6", "ssm:m=8"}) {
    const Module mod = build_circuit(spec, 16);
    const auto model = mult::make_multiplier(spec, 16);
    const auto r = check_random_vs_model(mod, *model, 5000);
    EXPECT_EQ(r.pairs_checked, 5000u);
    EXPECT_TRUE(r.equivalent()) << spec << ": " << r.mismatches << " mismatches";
  }
}

TEST(Equivalence, DetectsAnInjectedFault) {
  // A netlist that is not the model's design: the t=2 datapath truncates
  // fraction bits the t=0 model keeps, so the sweep must report it.
  const Module wrong = build_circuit("realm:m=4,t=2", 8);
  const auto model = mult::make_multiplier("realm:m=4,t=0", 8);
  const ModelEquivalence r = check_exhaustive_vs_model(wrong, *model);
  EXPECT_GT(r.mismatches, 0u);
  ASSERT_FALSE(r.examples.empty());
  const EquivalenceMismatch& ex = r.examples.front();
  Simulator sim{wrong};
  EXPECT_EQ(ex.circuit, sim.run({ex.a, ex.b}));
  EXPECT_EQ(ex.model, model->multiply(ex.a, ex.b));
  EXPECT_NE(ex.circuit, model->multiply(ex.a, ex.b));
}

TEST(Equivalence, RejectsOversizedExhaustiveSweep) {
  const Module mod = build_circuit("accurate", 16);  // 2^32 pairs
  const auto model = mult::make_multiplier("accurate", 16);
  EXPECT_THROW((void)check_exhaustive_vs_model(mod, *model), std::invalid_argument);
  EXPECT_THROW((void)check_random_vs_model(mod, *model, 0), std::invalid_argument);
}

// The AM model's scalar and batch paths share one reduction tree, so
// comparing them cannot catch a bug in that tree; the gate-level netlist is
// an independent oracle.
TEST(AmOracle, BatchMatchesNetlistExhaustivelyAt8Bits) {
  constexpr int n = 8;
  std::vector<std::uint64_t> a, b;
  for (std::uint64_t x = 0; x < (1u << n); ++x) {
    for (std::uint64_t y = 0; y < (1u << n); ++y) {
      a.push_back(x);
      b.push_back(y);
    }
  }
  for (const auto variant : {mult::AmVariant::kAm1, mult::AmVariant::kAm2}) {
    for (int nb = 0; nb <= 2 * n; ++nb) {
      const Module mod = build_circuit_unpruned(am_spec(variant, nb), n);
      const mult::AmMultiplier model{n, nb, variant};
      const auto eq = check_exhaustive_vs_model(mod, model);
      EXPECT_EQ(eq.pairs_checked, a.size());
      EXPECT_TRUE(eq.equivalent()) << model.name() << ": " << eq.mismatches << " mismatches";
      const auto expect = netlist_products(mod, a, b);
      for (const std::size_t batch : kBatchLengths) {
        EXPECT_EQ(batch_mismatches(model, a, b, expect, batch), 0u)
            << model.name() << " batch " << batch;
      }
    }
  }
}

TEST(AmOracle, BatchMatchesNetlistOnExtremeOperandsAtOtherWidths) {
  num::Xoshiro256 rng{0xA11};
  for (const int n : {2, 5, 12, 24, 31}) {
    // Each operand is independently all-ones, zero or random, so every lane
    // position of a block sees every corner combination.
    const std::uint64_t ones = num::mask(n);
    std::vector<std::uint64_t> a, b;
    for (std::size_t i = 0; i < 2 * 4099 + 3; ++i) {
      for (auto* v : {&a, &b}) {
        const std::uint64_t kind = rng.below(4);
        v->push_back(kind == 0 ? ones : kind == 1 ? 0 : rng.below(ones + 1));
      }
    }
    for (const auto variant : {mult::AmVariant::kAm1, mult::AmVariant::kAm2}) {
      for (const int nb : {0, 1, n, 2 * n - 1, 2 * n}) {
        const Module mod = build_circuit_unpruned(am_spec(variant, nb), n);
        const mult::AmMultiplier model{n, nb, variant};
        const auto expect = netlist_products(mod, a, b);
        for (const std::size_t batch : kBatchLengths) {
          EXPECT_EQ(batch_mismatches(model, a, b, expect, batch), 0u)
              << model.name() << " N=" << n << " batch " << batch;
        }
      }
    }
  }
}

// Every family on the datapath template (src/multipliers/datapath.hpp) gets
// its scalar, batch, row and range kernels from one policy, so comparing
// those paths with each other cannot catch a bug in the policy or the
// template; the gate-level netlist is the independent oracle.  Parameters
// are the ones valid at N = 8.
TEST(DatapathOracle, EveryEntryPointMatchesNetlistExhaustivelyAt8Bits) {
  constexpr int n = 8;
  constexpr std::uint64_t kSide = 1u << n;
  const char* const specs[] = {
      "calm",          "mbm:t=0",       "mbm:t=3",        "alm-soa:m=3",
      "alm-soa:m=6",   "alm-maa:m=3",   "alm-maa:m=6",    "implm",
      "intalp:l=1",    "intalp:l=2",    "drum:k=4",       "drum:k=6",
      "ssm:m=4",       "ssm:m=6",       "essm:m=6",       "realm:m=4,t=0",
      "realm:m=4,t=3", "realm:m=8,t=0", "realm:m=8,t=3"};
  // Column ranges [b0, b0 + len): whole rows, ranges from 0, and ranges
  // that cross one or several powers of two.
  constexpr std::pair<std::uint64_t, std::uint64_t> kRanges[] = {
      {0, kSide}, {0, 1}, {0, 3}, {1, 1}, {3, 6}, {5, 60}, {60, 70}, {127, 2}, {129, 127}};
  std::vector<std::uint64_t> a, b;
  for (std::uint64_t x = 0; x < kSide; ++x) {
    for (std::uint64_t y = 0; y < kSide; ++y) {
      a.push_back(x);
      b.push_back(y);
    }
  }
  std::vector<std::uint64_t> cols(kSide);
  for (std::uint64_t y = 0; y < kSide; ++y) cols[y] = y;

  for (const char* spec : specs) {
    const Module mod = build_circuit(spec, n);
    const auto model = mult::make_multiplier(spec, n);
    const auto expect = netlist_products(mod, a, b);

    std::uint64_t scalar_bad = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      scalar_bad += model->multiply(a[i], b[i]) != expect[i];
    }
    EXPECT_EQ(scalar_bad, 0u) << spec << " multiply";
    for (const std::size_t batch : kBatchLengths) {
      EXPECT_EQ(batch_mismatches(*model, a, b, expect, batch), 0u)
          << spec << " multiply_batch " << batch;
    }

    std::uint64_t row_bad = 0, range_bad = 0;
    std::vector<std::uint64_t> out(kSide);
    for (std::uint64_t x = 0; x < kSide; ++x) {
      const std::uint64_t* want = expect.data() + x * kSide;
      // Ragged row_batch calls: 7 columns, then the rest.
      model->multiply_row_batch(x, cols.data(), out.data(), 7);
      model->multiply_row_batch(x, cols.data() + 7, out.data() + 7, kSide - 7);
      for (std::uint64_t y = 0; y < kSide; ++y) row_bad += out[y] != want[y];
      for (const auto& [b0, len] : kRanges) {
        std::fill(out.begin(), out.end(), ~std::uint64_t{0});
        model->multiply_row_range(x, b0, out.data(), len);
        for (std::uint64_t i = 0; i < len; ++i) range_bad += out[i] != want[b0 + i];
      }
    }
    EXPECT_EQ(row_bad, 0u) << spec << " multiply_row_batch";
    EXPECT_EQ(range_bad, 0u) << spec << " multiply_row_range";
  }
}
