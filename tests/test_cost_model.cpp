#include "realm/hw/cost_model.hpp"

#include <gtest/gtest.h>

using namespace realm::hw;

namespace {

CostModel quick_model() {
  StimulusProfile p;
  p.cycles = 300;
  return CostModel{16, p};
}

}  // namespace

TEST(CostModel, CalibrationPinsTheAccurateReference) {
  CostModel cm = quick_model();
  EXPECT_DOUBLE_EQ(cm.accurate().area_um2, kPaperAccurateAreaUm2);
  EXPECT_DOUBLE_EQ(cm.accurate().power_uw, kPaperAccuratePowerUw);
  EXPECT_NEAR(cm.area_reduction_pct("accurate"), 0.0, 1e-9);
  EXPECT_NEAR(cm.power_reduction_pct("accurate"), 0.0, 1e-9);
}

TEST(CostModel, ApproximateDesignsReduceBothMetrics) {
  CostModel cm = quick_model();
  for (const char* spec : {"calm", "mbm:t=0", "realm:m=16,t=0", "realm:m=4,t=9",
                           "drum:k=6", "ssm:m=8", "essm:m=8", "alm-soa:m=11"}) {
    EXPECT_GT(cm.area_reduction_pct(spec), 20.0) << spec;
    EXPECT_LT(cm.area_reduction_pct(spec), 90.0) << spec;
    EXPECT_GT(cm.power_reduction_pct(spec), 20.0) << spec;
    EXPECT_LT(cm.power_reduction_pct(spec), 95.0) << spec;
  }
}

TEST(CostModel, RealmCostOrderingFollowsTheKnobs) {
  CostModel cm = quick_model();
  // Area reduction grows with t (narrower datapath)...
  EXPECT_LT(cm.area_reduction_pct("realm:m=8,t=0"),
            cm.area_reduction_pct("realm:m=8,t=9"));
  // ...and shrinks with M (bigger LUT mux).
  EXPECT_GT(cm.area_reduction_pct("realm:m=4,t=0"),
            cm.area_reduction_pct("realm:m=16,t=0"));
}

TEST(CostModel, RealmOverheadOverMbmIsSmall) {
  // The paper's headline hardware claim: the per-segment LUT adds little on
  // top of MBM's single-constant correction.
  CostModel cm = quick_model();
  const double mbm = cm.cost("mbm:t=0").area_um2;
  const double realm4 = cm.cost("realm:m=4,t=0").area_um2;
  EXPECT_LT(realm4 - mbm, 0.15 * cm.accurate().area_um2);
}

TEST(CostModel, CachingReturnsIdenticalObjects) {
  CostModel cm = quick_model();
  const DesignCost& a = cm.cost("calm");
  // One entry per design: every spelling returns the same object.
  for (const char* spec : {"calm", "CALM", "calm:t=0", "CALM:T=00", "calm:t=000"}) {
    EXPECT_EQ(&cm.cost(spec), &a) << spec;
  }
  EXPECT_EQ(&cm.cost("ACCURATE"), &cm.cost("accurate"));
}

TEST(CostModel, IntAlpL2IsTheCostliestApproximate) {
  CostModel cm = quick_model();
  const double intalp = cm.area_reduction_pct("intalp:l=2");
  for (const char* spec : {"calm", "realm:m=16,t=0", "drum:k=8", "ssm:m=10"}) {
    EXPECT_LT(intalp, cm.area_reduction_pct(spec)) << spec;
  }
}
