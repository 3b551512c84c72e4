// Campaign-memoized front ends for the expensive evaluation engines.
//
// Each request kind pairs a canonical key builder with an exact (hex-float)
// payload codec and one *payload function* that funnels the computation
// through CampaignRunner::run_unit, so Monte-Carlo error characterization,
// exact sweeps and calibrated synthesis costs all become resumable
// shard-granular work units.  A payload function returns the stored bytes:
// replayed on a hit, computed and durably stored on a miss, or computed
// directly when the runner is null — call sites stay oblivious to whether a
// store is attached.  The serving layer replies with those bytes verbatim;
// the cached_* front ends parse them, so a campaign run, a served reply and
// a store replay all carry the same numbers.
//
// Keys deliberately exclude thread counts: every wrapped engine is
// bit-identical for any parallelism (the seed-stability invariant), so a
// result computed with --threads=8 is a valid resume hit for --threads=1.
// Keys *include* a per-engine version tag; bump it whenever an engine's
// numerics change so stale stores miss instead of serving wrong answers.

#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "realm/campaign/runner.hpp"
#include "realm/error/metrics.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/hw/power.hpp"

namespace realm::hw {
class CostModel;
}

namespace realm::campaign {

/// Version tags folded into the request keys (bump on numeric changes).
inline constexpr const char* kErrorEngineVersion = "batched-v1";
inline constexpr const char* kExhaustiveEngineVersion = "tiled-v1";
inline constexpr const char* kSynthesisEngineVersion = "packed-v1";

// -- key builders -----------------------------------------------------------
//
// Each writes mult::canonical_spec(spec) into its `spec` field, so the key
// names the design, not the spelling; each throws std::invalid_argument for
// a spec that names no design.

[[nodiscard]] std::string monte_carlo_key(const std::string& spec, int n,
                                          const err::MonteCarloOptions& opts);
[[nodiscard]] std::string exhaustive_key(const std::string& spec, int n,
                                         std::uint64_t lo, std::uint64_t hi);
[[nodiscard]] std::string synthesis_key(const std::string& spec, int n,
                                        const hw::StimulusProfile& profile);

/// One design's calibrated synthesis record: the Table I design-metric
/// columns plus critical-path delay.
struct SynthesisResult {
  double area_um2 = 0.0;
  double power_uw = 0.0;
  double area_reduction_pct = 0.0;
  double power_reduction_pct = 0.0;
  double delay_ps = 0.0;
};

// -- payload codecs (exact round-trip; parse throws on schema drift) --------

[[nodiscard]] std::string serialize_error_metrics(const err::ErrorMetrics& m);
[[nodiscard]] err::ErrorMetrics parse_error_metrics(const std::string& payload);
[[nodiscard]] std::string serialize_exhaustive_report(const err::ExhaustiveReport& r);
[[nodiscard]] err::ExhaustiveReport parse_exhaustive_report(const std::string& payload);
[[nodiscard]] std::string serialize_synthesis(const SynthesisResult& s);
[[nodiscard]] SynthesisResult parse_synthesis(const std::string& payload);

// -- stored payloads ---------------------------------------------------------
//
// Every front end takes the design as (spec, n), never as a built model: the
// key is a function of what the caller passed, and the model is built from
// the same (spec, n) inside the unit's computation, so only on a miss.  A
// warm unit costs one spec parse and one journal read.  The `spec` field of
// every key is mult::canonical_spec(spec), so every spelling of one design
// shares one record.

/// The stored err::monte_carlo payload of make_multiplier(spec, n).
[[nodiscard]] std::string monte_carlo_payload(CampaignRunner* runner,
                                              const std::string& spec, int n,
                                              const err::MonteCarloOptions& opts);

/// The stored err::exhaustive_report payload of make_multiplier(spec, n).
/// Exact results are ideal memoization targets: the key is just (engine
/// version, spec, n, range) — no seed, no sample budget — and a stored unit
/// resumes a full 2^32 sweep in one journal read.  `threads` never enters
/// the key (the tiled engine is thread-count invariant); histograms are not
/// stored.
[[nodiscard]] std::string exhaustive_payload(CampaignRunner* runner,
                                             const std::string& spec, int n,
                                             std::uint64_t lo, std::uint64_t hi,
                                             int threads = 0);

/// The stored calibrated cost + timing payload.  `model` is invoked lazily,
/// only when a unit actually misses — a fully warm sweep never pays the
/// CostModel's accurate-reference calibration; an empty `model` builds a
/// fresh CostModel{n, profile} for the one unit.
[[nodiscard]] std::string synthesis_payload(
    CampaignRunner* runner, const std::string& spec, int n,
    const hw::StimulusProfile& profile,
    const std::function<hw::CostModel&()>& model = {});

// -- memoized front ends (parse the stored payload) -------------------------

[[nodiscard]] err::ErrorMetrics cached_monte_carlo(CampaignRunner* runner,
                                                   const std::string& spec, int n,
                                                   const err::MonteCarloOptions& opts);

[[nodiscard]] err::ExhaustiveReport cached_exhaustive(CampaignRunner* runner,
                                                      const std::string& spec, int n,
                                                      std::uint64_t lo,
                                                      std::uint64_t hi,
                                                      int threads = 0);

[[nodiscard]] SynthesisResult cached_synthesis(
    CampaignRunner* runner, const std::string& spec, int n,
    const hw::StimulusProfile& profile,
    const std::function<hw::CostModel&()>& model);

}  // namespace realm::campaign
