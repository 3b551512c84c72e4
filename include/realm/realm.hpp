// Umbrella header for the REALM library.
//
// REALM (Saadat et al., DATE 2020) is an error-configurable approximate
// unsigned integer multiplier built on Mitchell's log-based multiplier with
// per-segment analytic error-reduction factors.  This library provides:
//
//   realm::core   — the REALM model and its s_ij derivation engine
//   realm::mult   — ten state-of-the-art baselines behind one interface
//   realm::err    — error metrics, Monte-Carlo and exhaustive harnesses
//   realm::hw     — netlists, simulation, power, Verilog, cost model
//   realm::jpeg   — fixed-point JPEG application evaluation
//   realm::dse    — design-space sweep and Pareto fronts
//   realm::campaign — crash-safe result store + resumable campaign runner
//
// Quick start:
//
//   realm::core::RealmMultiplier mul({.n = 16, .m = 16, .t = 0, .q = 6});
//   std::uint64_t p = mul.multiply(25000, 31000);
//   auto metrics = realm::err::monte_carlo(mul);

#pragma once

#include "realm/campaign/cached_eval.hpp"
#include "realm/campaign/record.hpp"
#include "realm/campaign/result_store.hpp"
#include "realm/campaign/runner.hpp"
#include "realm/core/lut.hpp"
#include "realm/core/realm_multiplier.hpp"
#include "realm/core/segment_factors.hpp"
#include "realm/dse/pareto.hpp"
#include "realm/dse/sweep.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/error/profile.hpp"
#include "realm/hw/bdd.hpp"
#include "realm/hw/circuits.hpp"
#include "realm/hw/components.hpp"
#include "realm/hw/cost_model.hpp"
#include "realm/hw/simulator.hpp"
#include "realm/hw/timing.hpp"
#include "realm/hw/verilog.hpp"
#include "realm/jpeg/codec.hpp"
#include "realm/jpeg/quality.hpp"
#include "realm/jpeg/synthetic.hpp"
#include "realm/multiplier.hpp"
#include "realm/multipliers/registry.hpp"
