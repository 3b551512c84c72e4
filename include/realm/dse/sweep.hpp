// Full design-space sweep: error characterization plus calibrated synthesis
// cost for a list of design specs — the engine behind Table I and Fig. 4.

#pragma once

#include <string>
#include <vector>

#include "realm/dse/design_point.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/hw/cost_model.hpp"

namespace realm::campaign {
class CampaignRunner;
}

namespace realm::dse {

struct SweepOptions {
  int n = 16;
  err::MonteCarloOptions monte_carlo;
  hw::StimulusProfile stimulus;
  /// Optional campaign memoization/resume: when set, every design's error
  /// characterization and synthesis record becomes one idempotent store unit
  /// (campaign/cached_eval.hpp), so an interrupted sweep resumes where it
  /// crashed and a warm sweep skips the computation entirely.  Null = direct.
  campaign::CampaignRunner* campaign = nullptr;
};

/// Characterizes every spec and returns one point per input entry, in input
/// order.  Specs naming one design (equal mult::canonical_spec) are
/// characterized once and fanned back out to every occurrence; each point
/// keeps its own input spelling in DesignPoint::spec.  The cost model is
/// calibrated lazily (at most once, shared by all specs) — a fully
/// campaign-warm sweep never constructs it.
/// Progress is observable through the "dse/sweep" / "dse/point" trace spans
/// and the sweep_points counter rather than stderr chatter.
[[nodiscard]] std::vector<DesignPoint> run_sweep(const std::vector<std::string>& specs,
                                                 const SweepOptions& opts = {});

}  // namespace realm::dse
