#include "realm/hw/power.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "realm/hw/circuits.hpp"

using namespace realm::hw;

namespace {

StimulusProfile quick() {
  StimulusProfile p;
  p.cycles = 200;
  return p;
}

}  // namespace

TEST(Power, DeterministicForSeed) {
  const Module m = build_circuit("calm", 16);
  const auto a = estimate_power(m, quick());
  const auto b = estimate_power(m, quick());
  EXPECT_EQ(a.dynamic, b.dynamic);
  EXPECT_EQ(a.leakage, b.leakage);
}

TEST(Power, ZeroCycleProfileIsRejected) {
  const Module m = build_circuit("calm", 16);
  StimulusProfile p = quick();
  p.cycles = 0;
  EXPECT_THROW((void)estimate_power(m, p), std::invalid_argument);
  EXPECT_THROW((void)estimate_power_reference(m, p), std::invalid_argument);
}

TEST(Power, PackedEngineMatchesScalarReference) {
  const Module m = build_circuit("realm:m=16,t=0", 16);
  StimulusProfile p = quick();
  p.cycles = 1100;  // one full 1024-cycle block plus a partial tail
  const auto ref = estimate_power_reference(m, p);
  for (const int threads : {1, 2, 5}) {
    p.threads = threads;
    const auto got = estimate_power(m, p);
    EXPECT_EQ(ref.dynamic, got.dynamic) << threads << " threads";
    EXPECT_EQ(ref.leakage, got.leakage) << threads << " threads";
  }
}

TEST(Power, StimulusStreamIsPinned) {
  // The packed engine and the scalar reference share one stimulus stream,
  // so only fixed numbers catch a change in its RNG draw order.  Recorded
  // while each engine still drew its own copy of the stream, so they also
  // show that sharing it changed no report.
  const Module m = build_circuit("realm:m=4,t=0", 8);
  StimulusProfile p;
  p.cycles = 300;
  for (const auto& report : {estimate_power(m, p), estimate_power_reference(m, p)}) {
    EXPECT_EQ(report.dynamic, 0x1.d35f6555c52e7p+6);
    EXPECT_EQ(report.leakage, 0x1.04fa58f7121c5p+2);
  }
}

TEST(Power, ZeroToggleRateMeansZeroDynamic) {
  const Module m = build_circuit("calm", 16);
  StimulusProfile p = quick();
  p.toggle_rate = 0.0;
  const auto r = estimate_power(m, p);
  EXPECT_EQ(r.dynamic, 0.0);
  EXPECT_GT(r.leakage, 0.0);
  EXPECT_EQ(r.total(), r.leakage);
}

TEST(Power, MonotoneInToggleRate) {
  const Module m = build_circuit("accurate", 16);
  StimulusProfile lo = quick(), hi = quick();
  lo.toggle_rate = 0.1;
  hi.toggle_rate = 0.5;
  EXPECT_LT(estimate_power(m, lo).dynamic, estimate_power(m, hi).dynamic);
}

TEST(Power, LeakageScalesWithGateCount) {
  const Module big = build_circuit("accurate", 16);
  const Module small = build_circuit("ssm:m=8", 16);
  EXPECT_GT(estimate_power(big, quick()).leakage,
            estimate_power(small, quick()).leakage);
}

TEST(Power, ApproximateDesignsBeatAccurate) {
  const StimulusProfile p = quick();
  const double acc = estimate_power(build_circuit("accurate", 16), p).total();
  for (const char* spec : {"calm", "realm:m=16,t=0", "realm:m=4,t=9", "drum:k=5",
                           "ssm:m=8"}) {
    EXPECT_LT(estimate_power(build_circuit(spec, 16), p).total(), acc) << spec;
  }
}
