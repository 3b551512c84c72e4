#include "realm/dse/sweep.hpp"

#include <optional>
#include <unordered_map>

#include "realm/campaign/cached_eval.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/trace.hpp"

namespace realm::dse {

std::vector<DesignPoint> run_sweep(const std::vector<std::string>& specs,
                                   const SweepOptions& opts) {
  REALM_TRACE_SCOPE("dse/sweep");

  // Dedupe designs up front, on the canonical spec: each design is
  // characterized exactly once, however many spellings name it, and fanned
  // back out in input order below.
  std::unordered_map<std::string, std::size_t> unique_index;
  std::vector<std::string> unique_specs;
  std::vector<std::size_t> point_of;
  point_of.reserve(specs.size());
  for (const auto& spec : specs) {
    const auto [it, added] =
        unique_index.try_emplace(mult::canonical_spec(spec), unique_specs.size());
    if (added) unique_specs.push_back(spec);
    point_of.push_back(it->second);
  }

  // The calibration (accurate-reference synthesis) is the sweep's fixed
  // cost; build it lazily so a fully campaign-warm run never pays it.
  std::optional<hw::CostModel> cost_model;
  const auto model_ref = [&]() -> hw::CostModel& {
    if (!cost_model) {
      REALM_TRACE_SCOPE("dse/calibrate");
      cost_model.emplace(opts.n, opts.stimulus);
    }
    return *cost_model;
  };

  std::vector<DesignPoint> unique_points;
  unique_points.reserve(unique_specs.size());
  for (const auto& spec : unique_specs) {
    REALM_TRACE_SCOPE("dse/point");
    DesignPoint p;
    p.name = mult::make_multiplier(spec, opts.n)->name();
    // Characterization runs on the batched evaluation engine (persistent
    // pool + multiply_batch); REALM points also hit the shared SegmentLut
    // cache, so repeated (m, q) pairs across the sweep derive Eq. 11 once.
    // With a campaign attached, both halves are store units: completed ones
    // replay from the journal instead of recomputing.
    p.error = campaign::cached_monte_carlo(opts.campaign, spec, opts.n, opts.monte_carlo);
    const auto syn =
        campaign::cached_synthesis(opts.campaign, spec, opts.n, opts.stimulus, model_ref);
    p.cost.area_um2 = syn.area_um2;
    p.cost.power_uw = syn.power_uw;
    p.area_reduction_pct = syn.area_reduction_pct;
    p.power_reduction_pct = syn.power_reduction_pct;
    obs::counter_add(obs::Counter::kSweepPoints, 1);
    unique_points.push_back(std::move(p));
  }

  // Each point keeps its caller's spelling.
  std::vector<DesignPoint> points;
  points.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    points.push_back(unique_points[point_of[i]]);
    points.back().spec = specs[i];
  }
  return points;
}

}  // namespace realm::dse
