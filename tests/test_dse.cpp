#include "realm/dse/pareto.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>
#include <unistd.h>

#include "realm/campaign/result_store.hpp"
#include "realm/campaign/runner.hpp"
#include "realm/dse/sweep.hpp"

using namespace realm;

TEST(Pareto, HandCraftedFront) {
  // (x maximize, y minimize): points B and D dominate the rest.
  const std::vector<double> x{10, 20, 15, 30, 30};
  const std::vector<double> y{5, 2, 4, 3, 2.5};
  const auto front = dse::pareto_front_indices(x, y);
  // x=30,y=2.5 (idx 4) and x=20,y=2 (idx 1) survive; idx 3 dominated by 4.
  ASSERT_EQ(front.size(), 2u);
  EXPECT_EQ(front[0], 1u);
  EXPECT_EQ(front[1], 4u);
}

TEST(Pareto, SinglePointIsItsOwnFront) {
  const auto front = dse::pareto_front_indices({1.0}, {1.0});
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0], 0u);
}

TEST(Pareto, MonotoneChainKeepsEverything) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{4, 3, 2, 1};  // improving both ways
  EXPECT_EQ(dse::pareto_front_indices(x, y).size(), 1u);  // (4,1) dominates all
}

TEST(Pareto, AntichainKeepsEverything) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{1, 2, 3, 4};  // better x costs worse y
  EXPECT_EQ(dse::pareto_front_indices(x, y).size(), 4u);
}

TEST(Pareto, SizeMismatchThrows) {
  EXPECT_THROW((void)dse::pareto_front_indices({1.0}, {1.0, 2.0}),
               std::invalid_argument);
}

namespace {

dse::DesignPoint point(const std::string& spec, double mean, double peak,
                       double area_red, double power_red) {
  dse::DesignPoint p;
  p.spec = spec;
  p.name = "display name";  // real names never contain commas
  p.error.mean = mean;
  p.error.min = -peak;
  p.error.max = peak / 2;
  p.area_reduction_pct = area_red;
  p.power_reduction_pct = power_red;
  return p;
}

}  // namespace

TEST(Fig4Front, FiltersByThePaperLimits) {
  std::vector<dse::DesignPoint> pts;
  pts.push_back(point("good", 1.0, 5.0, 60, 70));
  pts.push_back(point("too-inaccurate", 5.0, 20.0, 80, 90));  // mean > 4 %
  pts.push_back(point("dominated", 2.0, 8.0, 50, 60));
  const auto front = dse::fig4_front(pts, dse::CostAxis::kAreaReduction,
                                     dse::ErrorAxis::kMeanError);
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(pts[front[0]].spec, "good");
}

TEST(Fig4Front, PeakAxisUsesPeakLimit) {
  std::vector<dse::DesignPoint> pts;
  pts.push_back(point("a", 1.0, 14.0, 60, 70));
  pts.push_back(point("b", 1.0, 16.0, 80, 90));  // peak > 15 %
  const auto front =
      dse::fig4_front(pts, dse::CostAxis::kPowerReduction, dse::ErrorAxis::kPeakError);
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(pts[front[0]].spec, "a");
}

TEST(DesignPoint, CsvRowHasAllColumns) {
  const auto p = point("realm:m=8,t=1", 0.75, 3.7, 60, 72);
  const std::string header = dse::design_points_csv_header();
  const std::string row = p.to_csv_row();
  const auto commas = [](const std::string& s) {
    return std::count(s.begin(), s.end(), ',');
  };
  EXPECT_EQ(commas(header), commas(row));
  EXPECT_TRUE(p.is_realm());
  EXPECT_TRUE(point("REALM:M=8,T=2", 1, 1, 1, 1).is_realm());
  EXPECT_TRUE(point("Realm", 1, 1, 1, 1).is_realm());
  EXPECT_FALSE(point("calm", 1, 1, 1, 1).is_realm());
  EXPECT_FALSE(point("realmish:m=8", 1, 1, 1, 1).is_realm());
  EXPECT_FALSE(point("a", 1, 1, 1, 1).is_realm());
}

TEST(BestUnderBudget, PicksTheCheapestQualifyingDesign) {
  std::vector<dse::DesignPoint> pts;
  pts.push_back(point("accurate-ish", 0.1, 0.5, 5, 5));
  pts.push_back(point("sweet-spot", 1.0, 4.0, 60, 70));
  pts.push_back(point("too-sloppy", 5.0, 20.0, 85, 90));
  dse::ErrorBudget budget;
  budget.max_mean_pct = 2.0;
  budget.max_peak_pct = 8.0;
  const auto by_area = dse::best_under_budget(pts, budget, dse::CostAxis::kAreaReduction);
  ASSERT_TRUE(by_area.has_value());
  EXPECT_EQ(pts[*by_area].spec, "sweet-spot");
}

TEST(BestUnderBudget, EmptyWhenNothingQualifies) {
  std::vector<dse::DesignPoint> pts;
  pts.push_back(point("sloppy", 5.0, 20.0, 85, 90));
  dse::ErrorBudget budget;
  budget.max_mean_pct = 1.0;
  EXPECT_FALSE(
      dse::best_under_budget(pts, budget, dse::CostAxis::kPowerReduction).has_value());
  EXPECT_FALSE(
      dse::best_under_budget({}, budget, dse::CostAxis::kPowerReduction).has_value());
}

TEST(BestUnderBudget, BiasCapFiltersBiasedDesigns) {
  std::vector<dse::DesignPoint> pts;
  auto biased = point("biased", 1.0, 4.0, 80, 80);
  biased.error.bias = -3.8;
  pts.push_back(biased);
  pts.push_back(point("unbiased", 1.0, 4.0, 60, 60));  // helper sets bias 0
  dse::ErrorBudget budget;
  budget.max_abs_bias_pct = 0.5;
  const auto best = dse::best_under_budget(pts, budget, dse::CostAxis::kAreaReduction);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(pts[*best].spec, "unbiased");
}

TEST(Sweep, SmokeRunProducesConsistentPoints) {
  dse::SweepOptions opts;
  opts.monte_carlo.samples = 1 << 14;
  opts.stimulus.cycles = 150;
  const auto pts = dse::run_sweep({"calm", "realm:m=4,t=0", "drum:k=6"}, opts);
  ASSERT_EQ(pts.size(), 3u);
  for (const auto& p : pts) {
    EXPECT_GT(p.error.mean, 0.0) << p.spec;
    EXPECT_GT(p.area_reduction_pct, 10.0) << p.spec;
    EXPECT_GT(p.cost.area_um2, 0.0) << p.spec;
    EXPECT_LT(p.cost.area_um2, realm::hw::kPaperAccurateAreaUm2) << p.spec;
  }
  // REALM4 must be more accurate than cALM.
  EXPECT_LT(pts[1].error.mean, pts[0].error.mean);
}

TEST(Sweep, DuplicateSpecsCharacterizedOnceInInputOrder) {
  const std::string store_path =
      (std::filesystem::temp_directory_path() /
       ("realm_test_sweep_dupes_" + std::to_string(::getpid()) + ".store"))
          .string();
  std::remove(store_path.c_str());
  realm::campaign::ResultStore store{store_path};
  realm::campaign::CampaignRunner runner{&store, /*resume=*/false};

  dse::SweepOptions opts;
  opts.monte_carlo.samples = 1 << 12;
  opts.stimulus.cycles = 100;
  opts.campaign = &runner;
  // Two designs, spelt seven ways.
  const std::vector<std::string> specs{"calm", "realm:m=4,t=0", "calm",     "calm",
                                       "realm:m=4,t=0", "CALM", "calm:t=0", "calm:t=00"};
  const auto pts = dse::run_sweep(specs, opts);
  ASSERT_EQ(pts.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(pts[i].spec, specs[i]) << "results must stay in input order";
  }
  // Each design is characterized once: one error and one synthesis unit.
  EXPECT_EQ(runner.units_computed(), 2u * 2u);
  // Duplicates are the same characterization fanned out, not reruns.
  for (const std::size_t i : {2u, 3u, 5u, 6u, 7u}) {
    EXPECT_EQ(std::memcmp(&pts[0].error.mean, &pts[i].error.mean, sizeof(double)), 0)
        << specs[i];
    EXPECT_EQ(pts[0].cost.area_um2, pts[i].cost.area_um2) << specs[i];
    EXPECT_EQ(pts[0].name, pts[i].name) << specs[i];
  }
  EXPECT_EQ(std::memcmp(&pts[1].error.mean, &pts[4].error.mean, sizeof(double)), 0);
  std::remove(store_path.c_str());
}

TEST(Sweep, CampaignWarmSweepIsBitIdenticalToCold) {
  const std::string store_path =
      (std::filesystem::temp_directory_path() /
       ("realm_test_sweep_" + std::to_string(::getpid()) + ".store"))
          .string();
  std::remove(store_path.c_str());

  dse::SweepOptions opts;
  opts.monte_carlo.samples = 1 << 12;
  opts.stimulus.cycles = 100;
  const std::vector<std::string> specs{"calm", "realm:m=4,t=0"};

  realm::campaign::ResultStore store{store_path};
  realm::campaign::CampaignRunner cold{&store, /*resume=*/false};
  opts.campaign = &cold;
  const auto cold_pts = dse::run_sweep(specs, opts);
  EXPECT_EQ(cold.units_computed(), 2 * specs.size());  // error + synthesis units

  realm::campaign::CampaignRunner warm{&store, /*resume=*/true};
  opts.campaign = &warm;
  const auto warm_pts = dse::run_sweep(specs, opts);
  EXPECT_EQ(warm.units_resumed(), 2 * specs.size());
  EXPECT_EQ(warm.units_computed(), 0u);

  ASSERT_EQ(cold_pts.size(), warm_pts.size());
  for (std::size_t i = 0; i < cold_pts.size(); ++i) {
    EXPECT_EQ(cold_pts[i].spec, warm_pts[i].spec);
    EXPECT_EQ(std::memcmp(&cold_pts[i].error.mean, &warm_pts[i].error.mean,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&cold_pts[i].error.bias, &warm_pts[i].error.bias,
                          sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&cold_pts[i].area_reduction_pct,
                          &warm_pts[i].area_reduction_pct, sizeof(double)),
              0);
    EXPECT_EQ(std::memcmp(&cold_pts[i].power_reduction_pct,
                          &warm_pts[i].power_reduction_pct, sizeof(double)),
              0);
  }
  std::remove(store_path.c_str());
}
