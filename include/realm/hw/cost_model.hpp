// Calibrated area/power cost model (the Table I "Design Metrics" columns).
//
// The paper reports area- and power-*reductions* relative to an accurate
// Wallace-tree multiplier synthesized at 1 GHz with TSMC 45 nm cells
// (reference: 1898.1 µm², 821.9 µW).  We build each design's netlist, take
// its raw cell area and activity-based power, and scale both by the factors
// that pin our accurate multiplier to the paper's reference — a single
// calibration shared by every design, so all reductions remain honest
// relative measurements.

#pragma once

#include <map>
#include <string>

#include "realm/hw/power.hpp"

namespace realm::hw {

/// The paper's accurate-multiplier synthesis reference (§IV-C, Table I).
inline constexpr double kPaperAccurateAreaUm2 = 1898.1;
inline constexpr double kPaperAccuratePowerUw = 821.9;

struct DesignCost {
  double area_um2 = 0.0;
  double power_uw = 0.0;
};

class CostModel {
 public:
  /// Builds and characterizes the accurate reference for n-bit operands and
  /// derives the calibration factors.
  explicit CostModel(int n = 16, StimulusProfile profile = {});

  [[nodiscard]] int width() const noexcept { return n_; }
  [[nodiscard]] const DesignCost& accurate() const noexcept { return accurate_; }

  /// Calibrated absolute cost of a design, cached per design: every spelling
  /// with one mult::canonical_spec shares one entry (and one reference).
  [[nodiscard]] const DesignCost& cost(const std::string& spec);

  /// (accurate - design) / accurate × 100, as Table I reports.
  [[nodiscard]] double area_reduction_pct(const std::string& spec);
  [[nodiscard]] double power_reduction_pct(const std::string& spec);

 private:
  int n_;
  StimulusProfile profile_;
  double area_scale_ = 1.0;
  double power_scale_ = 1.0;
  DesignCost accurate_;
  std::map<std::string, DesignCost> cache_;
};

}  // namespace realm::hw
