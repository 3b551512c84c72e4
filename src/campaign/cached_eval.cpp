#include "realm/campaign/cached_eval.hpp"

#include "realm/campaign/record.hpp"
#include "realm/hw/circuits.hpp"
#include "realm/hw/cost_model.hpp"
#include "realm/hw/timing.hpp"
#include "realm/multipliers/registry.hpp"

namespace realm::campaign {

std::string monte_carlo_key(const std::string& spec, int n,
                            const err::MonteCarloOptions& opts) {
  // opts.threads never changes the result (thread-count invariance) and is
  // deliberately absent.
  return RequestKey{"error_mc"}
      .field("engine", kErrorEngineVersion)
      .field("spec", mult::canonical_spec(spec))
      .field("n", n)
      .field("samples", opts.samples)
      .field_hex("seed", opts.seed)
      .str();
}

std::string exhaustive_key(const std::string& spec, int n, std::uint64_t lo,
                           std::uint64_t hi) {
  // No seed, no sample budget, no thread count: an exact result is fully
  // determined by (engine, spec, n, range).
  return RequestKey{"error_exhaustive"}
      .field("engine", kExhaustiveEngineVersion)
      .field("spec", mult::canonical_spec(spec))
      .field("n", n)
      .field("lo", lo)
      .field("hi", hi)
      .str();
}

std::string synthesis_key(const std::string& spec, int n,
                          const hw::StimulusProfile& profile) {
  return RequestKey{"synthesis"}
      .field("engine", kSynthesisEngineVersion)
      .field("spec", mult::canonical_spec(spec))
      .field("n", n)
      .field("cycles", static_cast<std::uint64_t>(profile.cycles))
      .field_hex("seed", profile.seed)
      .field("toggle_rate", profile.toggle_rate)
      .field("probability", profile.probability)
      .str();
}

std::string serialize_error_metrics(const err::ErrorMetrics& m) {
  return PayloadWriter{}
      .field("bias", m.bias)
      .field("mean", m.mean)
      .field("variance", m.variance)
      .field("min", m.min)
      .field("max", m.max)
      .field("samples", m.samples)
      .str();
}

err::ErrorMetrics parse_error_metrics(const std::string& payload) {
  const PayloadReader r{payload};
  err::ErrorMetrics m;
  m.bias = r.get_double("bias");
  m.mean = r.get_double("mean");
  m.variance = r.get_double("variance");
  m.min = r.get_double("min");
  m.max = r.get_double("max");
  m.samples = r.get_u64("samples");
  return m;
}

std::string serialize_exhaustive_report(const err::ExhaustiveReport& r) {
  // The metrics lines, then the report's own: PayloadWriter output is one
  // "name=value\n" line per field, so the concatenation is one payload.
  return serialize_error_metrics(r.metrics) +
         PayloadWriter{}
             .field("pairs", r.pairs)
             .field("min_a", r.min_peak.a)
             .field("min_b", r.min_peak.b)
             .field("min_product", r.min_peak.product)
             .field("min_error", r.min_peak.error)
             .field("max_a", r.max_peak.a)
             .field("max_b", r.max_peak.b)
             .field("max_product", r.max_peak.product)
             .field("max_error", r.max_peak.error)
             .field("peaks_valid", std::uint64_t{r.min_peak.valid ? 1u : 0u})
             .str();
}

err::ExhaustiveReport parse_exhaustive_report(const std::string& payload) {
  const PayloadReader p{payload};
  err::ExhaustiveReport r;
  r.metrics = parse_error_metrics(payload);
  r.pairs = p.get_u64("pairs");
  const bool valid = p.get_u64("peaks_valid") != 0;
  r.min_peak = {p.get_u64("min_a"), p.get_u64("min_b"), p.get_u64("min_product"),
                p.get_double("min_error"), valid};
  r.max_peak = {p.get_u64("max_a"), p.get_u64("max_b"), p.get_u64("max_product"),
                p.get_double("max_error"), valid};
  return r;
}

// Public since the serving layer: the net warm path answers synthesis
// requests with the stored payload verbatim, so the codec is part of the
// wire contract, not a private detail.
[[nodiscard]] std::string serialize_synthesis(const SynthesisResult& s) {
  return PayloadWriter{}
      .field("area_um2", s.area_um2)
      .field("power_uw", s.power_uw)
      .field("area_reduction_pct", s.area_reduction_pct)
      .field("power_reduction_pct", s.power_reduction_pct)
      .field("delay_ps", s.delay_ps)
      .str();
}

[[nodiscard]] SynthesisResult parse_synthesis(const std::string& payload) {
  const PayloadReader r{payload};
  SynthesisResult s;
  s.area_um2 = r.get_double("area_um2");
  s.power_uw = r.get_double("power_uw");
  s.area_reduction_pct = r.get_double("area_reduction_pct");
  s.power_reduction_pct = r.get_double("power_reduction_pct");
  s.delay_ps = r.get_double("delay_ps");
  return s;
}

namespace {

// The one place a missing store degrades to the direct computation.  With a
// runner, the unit is replayed on a hit or computed and durably stored on a
// miss; without one, `compute` just runs.  Either way the caller gets payload
// bytes, so every front end reports the store's numbers by construction.
[[nodiscard]] std::string stored_payload(CampaignRunner* runner, const std::string& key,
                                         const std::function<std::string()>& compute) {
  if (runner == nullptr) return compute();
  return runner->run_unit(key, compute);
}

[[nodiscard]] SynthesisResult compute_synthesis(hw::CostModel& cm,
                                                const std::string& spec, int n) {
  SynthesisResult s;
  const hw::DesignCost& cost = cm.cost(spec);
  s.area_um2 = cost.area_um2;
  s.power_uw = cost.power_uw;
  s.area_reduction_pct = cm.area_reduction_pct(spec);
  s.power_reduction_pct = cm.power_reduction_pct(spec);
  s.delay_ps = hw::analyze_timing(hw::build_circuit(spec, n)).critical_path_ps;
  return s;
}

}  // namespace

std::string monte_carlo_payload(CampaignRunner* runner, const std::string& spec, int n,
                                const err::MonteCarloOptions& opts) {
  return stored_payload(runner, monte_carlo_key(spec, n, opts), [&] {
    return serialize_error_metrics(
        err::monte_carlo(*mult::make_multiplier(spec, n), opts));
  });
}

std::string exhaustive_payload(CampaignRunner* runner, const std::string& spec, int n,
                               std::uint64_t lo, std::uint64_t hi, int threads) {
  return stored_payload(runner, exhaustive_key(spec, n, lo, hi), [&] {
    return serialize_exhaustive_report(err::exhaustive_report(
        *mult::make_multiplier(spec, n), nullptr, lo, hi, threads));
  });
}

std::string synthesis_payload(CampaignRunner* runner, const std::string& spec, int n,
                              const hw::StimulusProfile& profile,
                              const std::function<hw::CostModel&()>& model) {
  return stored_payload(runner, synthesis_key(spec, n, profile), [&] {
    if (model) return serialize_synthesis(compute_synthesis(model(), spec, n));
    hw::CostModel cm{n, profile};
    return serialize_synthesis(compute_synthesis(cm, spec, n));
  });
}

err::ErrorMetrics cached_monte_carlo(CampaignRunner* runner, const std::string& spec,
                                     int n, const err::MonteCarloOptions& opts) {
  return parse_error_metrics(monte_carlo_payload(runner, spec, n, opts));
}

err::ExhaustiveReport cached_exhaustive(CampaignRunner* runner, const std::string& spec,
                                        int n, std::uint64_t lo, std::uint64_t hi,
                                        int threads) {
  return parse_exhaustive_report(exhaustive_payload(runner, spec, n, lo, hi, threads));
}

SynthesisResult cached_synthesis(CampaignRunner* runner, const std::string& spec,
                                 int n, const hw::StimulusProfile& profile,
                                 const std::function<hw::CostModel&()>& model) {
  return parse_synthesis(synthesis_payload(runner, spec, n, profile, model));
}

}  // namespace realm::campaign
