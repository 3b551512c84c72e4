#include "realm/multipliers/registry.hpp"

#include <cmath>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "realm/error/monte_carlo.hpp"
#include "realm/hw/circuits.hpp"
#include "realm/multipliers/accurate.hpp"
#include "realm/multipliers/drum.hpp"
#include "realm/multipliers/mitchell.hpp"
#include "realm/multipliers/ssm.hpp"
#include "realm/numeric/rng.hpp"

using namespace realm;

namespace {

double rel_error_pct(const Multiplier& m, std::uint64_t a, std::uint64_t b) {
  const double exact = static_cast<double>(a) * static_cast<double>(b);
  return 100.0 * (static_cast<double>(m.multiply(a, b)) - exact) / exact;
}

}  // namespace

TEST(Accurate, IsExactEverywhere) {
  const mult::AccurateMultiplier m{16};
  num::Xoshiro256 rng{1};
  for (int it = 0; it < 100000; ++it) {
    const std::uint64_t a = rng.below(65536), b = rng.below(65536);
    EXPECT_EQ(m.multiply(a, b), a * b);
  }
}

TEST(Mitchell, HandComputedValues) {
  const mult::MitchellMultiplier m{16};
  // 3×3: x = y = 1/2, x+y = 1 -> C~ = 2^(1+1+1)·(1+0) = 8 (exact 9, -11.1 %).
  EXPECT_EQ(m.multiply(3, 3), 8u);
  // Powers of two are exact (x = y = 0).
  EXPECT_EQ(m.multiply(4, 8), 32u);
  EXPECT_EQ(m.multiply(1, 77), 77u);
  // 6×6: same fractions as 3×3, scaled: 2^(2+2+1)·1 = 32 (exact 36).
  EXPECT_EQ(m.multiply(6, 6), 32u);
  // 5×5: x = y = 1/4 -> 2^4·(1.5) = 24 (exact 25).
  EXPECT_EQ(m.multiply(5, 5), 24u);
}

TEST(Mitchell, NeverOverestimates) {
  const mult::MitchellMultiplier m{16};
  num::Xoshiro256 rng{2};
  for (int it = 0; it < 200000; ++it) {
    const std::uint64_t a = rng.below(65536), b = rng.below(65536);
    EXPECT_LE(m.multiply(a, b), a * b);
  }
}

TEST(Mitchell, PeakUnderestimateIsOneNinth) {
  const mult::MitchellMultiplier m{16};
  double worst = 0.0;
  num::Xoshiro256 rng{3};
  for (int it = 0; it < 300000; ++it) {
    const std::uint64_t a = 1 + rng.below(65535), b = 1 + rng.below(65535);
    worst = std::min(worst, rel_error_pct(m, a, b));
  }
  EXPECT_GT(worst, -100.0 / 9.0 - 1e-6);
  EXPECT_LT(worst, -11.0);  // the bound is achieved (x = y = 1/2 inputs)
}

TEST(Drum, ExactWhenOperandsFitFragment) {
  const mult::DrumMultiplier m{16, 6};
  for (std::uint64_t a = 0; a < 64; ++a) {
    for (std::uint64_t b = 0; b < 64; ++b) EXPECT_EQ(m.multiply(a, b), a * b);
  }
}

TEST(Drum, ErrorShrinksWithK) {
  num::Xoshiro256 rng{4};
  double worst6 = 0.0, worst8 = 0.0;
  const mult::DrumMultiplier m6{16, 6}, m8{16, 8};
  for (int it = 0; it < 100000; ++it) {
    const std::uint64_t a = 1 + rng.below(65535), b = 1 + rng.below(65535);
    worst6 = std::max(worst6, std::fabs(rel_error_pct(m6, a, b)));
    worst8 = std::max(worst8, std::fabs(rel_error_pct(m8, a, b)));
  }
  EXPECT_LT(worst8, worst6);
  EXPECT_LT(worst8, 1.6);   // Table I: ±1.47/1.57 for k = 8
  EXPECT_LT(worst6, 6.5);   // Table I: -5.78/+6.35 for k = 6
}

TEST(Ssm, OneSidedAndExactForSmallInputs) {
  const mult::SsmMultiplier m{16, 8};
  num::Xoshiro256 rng{5};
  for (std::uint64_t a = 0; a < 256; ++a) EXPECT_EQ(m.multiply(a, 7), a * 7);
  for (int it = 0; it < 100000; ++it) {
    const std::uint64_t a = rng.below(65536), b = rng.below(65536);
    EXPECT_LE(m.multiply(a, b), a * b);
  }
}

TEST(Essm, MiddleSegmentHalvesWorstCase) {
  const mult::SsmMultiplier ssm{16, 8};
  const mult::EssmMultiplier essm{16, 8};
  // The SSM worst case: value just above a segment boundary.
  const std::uint64_t bad = 0x01FF;
  EXPECT_LT(rel_error_pct(ssm, bad, bad), -70.0);
  EXPECT_GT(rel_error_pct(essm, bad, bad), -13.0);
}

TEST(LogFamily, CommutativityHoldsForSymmetricDesigns) {
  num::Xoshiro256 rng{6};
  for (const char* spec : {"calm", "mbm:t=3", "alm-soa:m=9", "alm-maa:m=6", "implm",
                           "drum:k=6", "ssm:m=8", "essm:m=8", "intalp:l=2"}) {
    const auto m = mult::make_multiplier(spec, 16);
    for (int it = 0; it < 20000; ++it) {
      const std::uint64_t a = rng.below(65536), b = rng.below(65536);
      ASSERT_EQ(m->multiply(a, b), m->multiply(b, a)) << spec;
    }
  }
}

TEST(AllDesigns, ZeroAnnihilates) {
  for (const auto& spec : mult::table1_specs()) {
    const auto m = mult::make_multiplier(spec, 16);
    EXPECT_EQ(m->multiply(0, 54321), 0u) << spec;
    EXPECT_EQ(m->multiply(54321, 0), 0u) << spec;
  }
}

TEST(AllDesigns, MultiplyByOneStaysInsideTheDesignEnvelope) {
  // a·1: log-based designs see x = 0 for the 1-operand and stay within
  // ~12.5 %; segment multipliers (SSM) can still truncate the a-operand by
  // almost half.  Nothing may exceed the worst Table I peak (-72.7 %).
  num::Xoshiro256 rng{8};
  for (const auto& spec : mult::table1_specs()) {
    const auto m = mult::make_multiplier(spec, 16);
    for (int it = 0; it < 2000; ++it) {
      const std::uint64_t a = 1 + rng.below(65535);
      const double e = std::fabs(rel_error_pct(*m, a, 1));
      ASSERT_LT(e, 55.0) << spec << " a=" << a;
    }
  }
}

TEST(AllDesigns, OutputNeverExceedsProductEnvelope) {
  // No design may overshoot 2·exact (sanity bound well beyond any Table I
  // peak error).
  num::Xoshiro256 rng{9};
  for (const auto& spec : mult::table1_specs()) {
    const auto m = mult::make_multiplier(spec, 16);
    for (int it = 0; it < 5000; ++it) {
      const std::uint64_t a = 1 + rng.below(65535), b = 1 + rng.below(65535);
      ASSERT_LT(static_cast<double>(m->multiply(a, b)),
                2.0 * static_cast<double>(a * b))
          << spec;
    }
  }
}

TEST(IntAlp, Level1IsOneSidedPositive) {
  const auto m = mult::make_multiplier("intalp:l=1", 16);
  num::Xoshiro256 rng{10};
  for (int it = 0; it < 100000; ++it) {
    const std::uint64_t a = 1 + rng.below(65535), b = 1 + rng.below(65535);
    ASSERT_GE(static_cast<double>(m->multiply(a, b)) + 1.0,
              static_cast<double>(a * b));
  }
}

TEST(AmFamily, OneSidedNegative) {
  num::Xoshiro256 rng{11};
  for (const char* spec : {"am1:nb=13", "am1:nb=5", "am2:nb=13", "am2:nb=5"}) {
    const auto m = mult::make_multiplier(spec, 16);
    for (int it = 0; it < 50000; ++it) {
      const std::uint64_t a = rng.below(65536), b = rng.below(65536);
      ASSERT_LE(m->multiply(a, b), a * b) << spec;
    }
  }
}

TEST(AmFamily, TableOneMonteCarloMetricsArePinned) {
  // err::monte_carlo metrics of the six Table I AM rows at a fixed seed,
  // captured before the datapath was rewritten as the lane-blocked tree.  Any
  // change to an AM product moves these doubles.
  struct Pinned {
    const char* spec;
    double bias, mean, variance, min, max;
  };
  constexpr Pinned kPinned[] = {
      {"am1:nb=13", -0x1.b650e79cbdf2cp-2, 0x1.b650e79cbdf2dp-2, 0x1.ffc696414c989p+1,
       -0x1.09c4b7bf7938cp+6, 0x0p+0},
      {"am1:nb=9", -0x1.73d5dce472479p+1, 0x1.73d5dce472478p+1, 0x1.358c65f8c8046p+5,
       -0x1.0f22fa3ce10c3p+6, 0x0p+0},
      {"am1:nb=5", -0x1.ad3dba4605486p+3, 0x1.ad3dba4605486p+3, 0x1.8b49204d82dc7p+7,
       -0x1.111c6ee512319p+6, 0x0p+0},
      {"am2:nb=13", -0x1.61486888c1d8dp+0, 0x1.61486888c1d8dp+0, 0x1.fe437e68a3213p+2,
       -0x1.09c4b7bf7938cp+6, 0x0p+0},
      {"am2:nb=9", -0x1.c5227aed9a616p+1, 0x1.c5227aed9a616p+1, 0x1.42c9e9a397975p+5,
       -0x1.0f22fa3ce10c3p+6, 0x0p+0},
      {"am2:nb=5", -0x1.b062609fd1dafp+3, 0x1.b062609fd1dafp+3, 0x1.8a5c1b8d8671dp+7,
       -0x1.111c6ee512319p+6, 0x0p+0},
  };
  err::MonteCarloOptions opts;
  opts.samples = std::uint64_t{1} << 16;
  opts.seed = 0x7ab1e1;
  for (const auto& pin : kPinned) {
    const auto r = err::monte_carlo(*mult::make_multiplier(pin.spec, 16), opts);
    EXPECT_EQ(r.samples, 65534u) << pin.spec;  // two pairs have a zero operand
    EXPECT_EQ(r.bias, pin.bias) << pin.spec;
    EXPECT_EQ(r.mean, pin.mean) << pin.spec;
    EXPECT_EQ(r.variance, pin.variance) << pin.spec;
    EXPECT_EQ(r.min, pin.min) << pin.spec;
    EXPECT_EQ(r.max, pin.max) << pin.spec;
  }
}

TEST(DatapathFamilies, TableOneMonteCarloMetricsArePinned) {
  // err::monte_carlo metrics of one Table I spec per family on the datapath
  // template, captured from the hand-written kernels it replaced (Release
  // build).  Any change to one of these products moves these doubles.  The
  // reduction's last bit follows the build's FP code generation: an -O0
  // build, of this or of the replaced code, rounds alm-soa:m=11's variance
  // one ulp lower.
  struct Pinned {
    const char* spec;
    double bias, mean, variance, min, max;
  };
  constexpr Pinned kPinned[] = {
      {"realm:m=16,t=0", 0x1.a095a5506f42p-7, 0x1.addcca8b73c99p-2, 0x1.2175bc9d3e152p-2,
       -0x1.f52c0938a915bp+0, 0x1.c637c37008134p+0},
      {"calm", -0x1.ec0aff333bf92p+1, 0x1.ec0aff333bf91p+1, 0x1.140ed8e4b1469p+3,
       -0x1.6348533e499fcp+3, 0x0p+0},
      {"mbm:t=0", -0x1.67fbd3dfb9284p-4, 0x1.4a47599b86c7dp+1, 0x1.4066d0da3e1f4p+3,
       -0x1.e8074fd575642p+2, 0x1.f04125d36790fp+2},
      {"alm-soa:m=11", -0x1.e8b78a2128b49p+1, 0x1.075c45e57fac8p+2, 0x1.74e2910fa387cp+3,
       -0x1.cd1b04d05a15dp+3, 0x1.60a260dd056bep+2},
      {"alm-maa:m=6", -0x1.ebbe26cb0ee1ap+1, 0x1.ebc6d784a6bf9p+1, 0x1.141b313efaf88p+3,
       -0x1.638d16c80ddebp+3, 0x1.7bc40153c1d65p-4},
      {"implm", -0x1.fa1215b534d5cp-6, 0x1.6f811aa1b239fp+1, 0x1.d27e5e429a8c8p+3,
       -0x1.61d9227d5af15p+3, 0x1.6209d410c4403p+3},
      {"intalp:l=2", -0x1.0b06767b2686dp-7, 0x1.6c530595db012p-1, 0x1.dcdbde7d24de1p-1,
       -0x1.8086d115cea5p+2, 0x1.08eee5b68e401p+2},
      {"drum:k=6", 0x1.e181db104eef2p-5, 0x1.7650ba11ac0cp+0, 0x1.9d61ec875a168p+1,
       -0x1.5ad2b0aaf26a8p+2, 0x1.7c930604b4d7dp+2},
      {"ssm:m=10", -0x1.9707f098427ap-2, 0x1.9707f098427ap-2, 0x1.32f8be241a1ffp-2,
       -0x1.bf314e280c0ebp+2, 0x0p+0},
      {"essm:m=8", -0x1.225beb5052d68p+0, 0x1.225beb5052d68p+0, 0x1.cdbb64e334812p-1,
       -0x1.1dd58d44be821p+3, 0x0p+0},
  };
  err::MonteCarloOptions opts;
  opts.samples = std::uint64_t{1} << 16;
  opts.seed = 0x7ab1e1;
  for (const auto& pin : kPinned) {
    const auto r = err::monte_carlo(*mult::make_multiplier(pin.spec, 16), opts);
    EXPECT_EQ(r.samples, 65534u) << pin.spec;  // two pairs have a zero operand
    EXPECT_EQ(r.bias, pin.bias) << pin.spec;
    EXPECT_EQ(r.mean, pin.mean) << pin.spec;
    EXPECT_EQ(r.variance, pin.variance) << pin.spec;
    EXPECT_EQ(r.min, pin.min) << pin.spec;
    EXPECT_EQ(r.max, pin.max) << pin.spec;
  }
}

TEST(Registry, ParsesSpecsAndRejectsGarbage) {
  EXPECT_NO_THROW((void)mult::make_multiplier("REALM:M=8,T=2", 16));  // case-insensitive
  EXPECT_NO_THROW((void)mult::make_multiplier("realm:m=8;t=2", 16));  // CSV-safe form
  EXPECT_THROW((void)mult::make_multiplier("unknown", 16), std::invalid_argument);
  EXPECT_THROW((void)mult::make_multiplier("drum", 16), std::invalid_argument);  // missing k
  EXPECT_THROW((void)mult::make_multiplier("drum:=3", 16), std::invalid_argument);
  EXPECT_THROW((void)mult::make_multiplier("realm:m=5", 16), std::invalid_argument);
}

TEST(Registry, ParameterValuesParseStrictly) {
  // A trailing suffix is not ignored ("16x" must not build REALM16), and
  // an overflowing value is invalid_argument, not std::out_of_range.
  EXPECT_THROW((void)mult::parse_spec("realm:m=16x"), std::invalid_argument);
  EXPECT_THROW((void)mult::make_multiplier("realm:m=16x", 16), std::invalid_argument);
  EXPECT_THROW((void)mult::parse_spec("realm:m=99999999999"), std::invalid_argument);
  EXPECT_THROW((void)mult::parse_spec("realm:m="), std::invalid_argument);
  EXPECT_THROW((void)mult::parse_spec("realm:m= 16"), std::invalid_argument);
  EXPECT_EQ(mult::parse_spec("realm:m=16,t=-1").params.at("t"), -1);
  EXPECT_EQ(mult::parse_spec("realm:m=256").params.at("m"), 256);
  // Omitted keys take the design's defaults.
  EXPECT_EQ(mult::parse_spec("realm:t=3").params,
            (std::map<std::string, int>{{"m", 16}, {"q", 6}, {"t", 3}}));
  // An unknown, repeated, missing or out-of-range key is rejected by the
  // model factory and the circuit builder alike, so no typo silently builds
  // another configuration.
  for (const char* spec :
       {"realm:mm=8", "drum:k=6,bogus=1", "accurate:t=3", "realm:t=1,t=2",
        "realm:m=8,M=4", "drum", "nosuch:k=1", "mbm:q=2", "realm:q=2", "drum:k=2",
        "ssm:m=0", "intalp:l=3"}) {
    EXPECT_THROW((void)mult::parse_spec(spec), std::invalid_argument) << spec;
    EXPECT_THROW((void)mult::make_multiplier(spec, 16), std::invalid_argument) << spec;
    EXPECT_THROW((void)hw::build_circuit(spec, 16), std::invalid_argument) << spec;
  }
}

TEST(Registry, CircuitBuilderRejectsWhatTheModelRejects) {
  // The segment tables need q >= 3, which the spec table enforces above;
  // q = 3 itself builds both.
  EXPECT_NO_THROW((void)mult::make_multiplier("mbm:q=3", 16));
  EXPECT_NO_THROW((void)hw::build_circuit("mbm:q=3", 8));
  // A truncation outside [0, N-2] parses; the constructors and builders
  // reject it.
  for (const char* spec : {"calm:t=-1", "mbm:t=-1", "realm:t=-1", "calm:t=15"}) {
    EXPECT_THROW((void)mult::make_multiplier(spec, 16), std::invalid_argument) << spec;
    EXPECT_THROW((void)hw::build_circuit(spec, 16), std::invalid_argument) << spec;
  }
  // Designs and keys the library no longer has are unknown to both, not
  // mapped onto a design that still exists.
  for (const char* spec :
       {"udm", "trunc:drop=8", "mitchell", "realm:mse=1", "calm:adder=1"}) {
    EXPECT_THROW((void)mult::make_multiplier(spec, 16), std::invalid_argument) << spec;
    EXPECT_THROW((void)hw::build_circuit(spec, 16), std::invalid_argument) << spec;
  }
  // Every family over a grid of widths, with t and each family's own
  // parameter at its bounds and just past them: model and netlist accept
  // the same (spec, n).
  const auto accepts = [](auto build) {
    try {
      (void)build();
      return true;
    } catch (const std::invalid_argument&) {
      return false;
    }
  };
  std::set<std::string> families;
  for (const int n : {0, 1, 2, 3, 16, 24, 30, 31, 32}) {
    std::vector<std::string> specs{"accurate", "implm"};
    for (const int t : {-1, 0, n - 2, n - 1}) {
      const std::string ts = std::to_string(t);
      for (const char* design : {"calm:t=", "mbm:q=3,t=", "realm:m=2,t=", "realm:t="}) {
        specs.push_back(design + ts);
      }
    }
    const auto add = [&](const char* design, std::initializer_list<int> values) {
      for (const int v : values) specs.push_back(design + std::to_string(v));
    };
    add("alm-soa:m=", {-1, 0, n - 1, n});
    add("alm-maa:m=", {-1, 0, n - 1, n});
    add("drum:k=", {2, 3, n, n + 1});
    add("ssm:m=", {0, 1, n, n + 1});
    add("essm:m=", {0, 1, n - 2, n - 1, n, n + 1});
    add("am1:nb=", {-1, 0, 2 * n, 2 * n + 1});
    add("am2:nb=", {-1, 0, 2 * n, 2 * n + 1});
    add("intalp:l=", {0, 1, 2, 3});
    for (const std::string& spec : specs) {
      families.insert(spec.substr(0, spec.find(':')));
      const bool model = accepts([&] { return mult::make_multiplier(spec, n); });
      const bool circuit = accepts([&] { return hw::build_circuit(spec, n); });
      EXPECT_EQ(model, circuit) << spec << " at N=" << n;
    }
  }
  EXPECT_EQ(families.size(), 13u);
}

TEST(Registry, Table1CoversThePaperRowCount) {
  const auto specs = mult::table1_specs();
  // 30 REALM rows + cALM + ImpLM + 6 MBM + 10 ALM + 2 IntALP + 6 AM +
  // 5 DRUM + 3 SSM + ESSM8 = 65 approximate designs.
  EXPECT_EQ(specs.size(), 65u);
  for (const auto& spec : specs) {
    EXPECT_NO_THROW((void)mult::make_multiplier(spec, 16)) << spec;
  }
}

TEST(Registry, CanonicalSpecNamesEachDesignOnce) {
  // Every Table I row plus other spellings of some of them: upper case, the
  // ';' separator, explicit defaults and leading zeros.
  const std::vector<std::string> variants{
      "REALM:M=16,T=0", "realm:t=0",       "realm:m=16;t=00", "realm:q=6,t=000,m=016",
      "CALM",           "calm:t=0",        "calm:t=00",       "MBM:T=2;Q=6",
      "mbm:q=06,t=2",   "Drum:K=06",       "INTALP",          "intalp:l=02",
      "AM1:NB=13",      "ALM-SOA:M=11",    "ImpLM",           "ESSM:m=8"};
  std::vector<std::string> inputs = mult::table1_specs();
  inputs.insert(inputs.end(), variants.begin(), variants.end());
  for (const auto& spec : inputs) {
    const std::string canonical = mult::canonical_spec(spec);
    EXPECT_EQ(mult::canonical_spec(canonical), canonical) << spec;  // idempotent
    const mult::SpecParams parsed = mult::parse_spec(spec);
    const mult::SpecParams reparsed = mult::parse_spec(canonical);
    EXPECT_EQ(reparsed.design, parsed.design) << spec;
    EXPECT_EQ(reparsed.params, parsed.params) << spec;
  }
  // The 65 designs keep 65 names, and no variant names a 66th.
  std::set<std::string> designs;
  for (const auto& spec : mult::table1_specs()) {
    designs.insert(mult::canonical_spec(spec));
  }
  EXPECT_EQ(designs.size(), 65u);
  for (const auto& spec : variants) {
    EXPECT_TRUE(designs.contains(mult::canonical_spec(spec))) << spec;
  }
  // The form itself: lower case, every key in order, defaults filled in.
  EXPECT_EQ(mult::canonical_spec("REALM:T=00"), "realm:m=16,q=6,t=0");
  EXPECT_EQ(mult::canonical_spec("calm"), "calm:t=0");
  EXPECT_EQ(mult::canonical_spec("drum:k=6"), "drum:k=6");
  EXPECT_EQ(mult::canonical_spec("ACCURATE"), "accurate");
  EXPECT_EQ(mult::canonical_spec("implm"), "implm");
  for (const char* spec : {"calm|n=16", "nosuch", "calm:t=1x", "realm:t=1,t=1", ""}) {
    EXPECT_THROW((void)mult::canonical_spec(spec), std::invalid_argument) << spec;
  }
}

TEST(Registry, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& spec : mult::table1_specs()) {
    EXPECT_TRUE(names.insert(mult::make_multiplier(spec, 16)->name()).second) << spec;
  }
}
