#include "realm/hw/cost_model.hpp"

#include <utility>

#include "realm/hw/circuits.hpp"
#include "realm/multipliers/registry.hpp"

namespace realm::hw {

CostModel::CostModel(int n, StimulusProfile profile) : n_{n}, profile_{profile} {
  const Module acc = build_accurate(n_);
  const double raw_area = acc.area_um2();
  const double raw_power = estimate_power(acc, profile_).total();
  area_scale_ = kPaperAccurateAreaUm2 / raw_area;
  power_scale_ = kPaperAccuratePowerUw / raw_power;
  accurate_ = {kPaperAccurateAreaUm2, kPaperAccuratePowerUw};
  cache_.emplace(mult::canonical_spec("accurate"), accurate_);
}

const DesignCost& CostModel::cost(const std::string& spec) {
  std::string key = mult::canonical_spec(spec);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  const Module mod = build_circuit(spec, n_);
  DesignCost c;
  c.area_um2 = mod.area_um2() * area_scale_;
  c.power_uw = estimate_power(mod, profile_).total() * power_scale_;
  return cache_.emplace(std::move(key), c).first->second;
}

double CostModel::area_reduction_pct(const std::string& spec) {
  return 100.0 * (accurate_.area_um2 - cost(spec).area_um2) / accurate_.area_um2;
}

double CostModel::power_reduction_pct(const std::string& spec) {
  return 100.0 * (accurate_.power_uw - cost(spec).power_uw) / accurate_.power_uw;
}

}  // namespace realm::hw
