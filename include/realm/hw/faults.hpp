// Stuck-at fault impact analysis.
//
// Force a gate output stuck-at-0/1, re-simulate, and measure how far the
// arithmetic result moves.  This quantifies a folk claim about approximate
// arithmetic — that its outputs degrade gracefully under defects compared
// to exact datapaths.

#pragma once

#include <cstdint>
#include <vector>

#include "realm/hw/netlist.hpp"

namespace realm::hw {

struct FaultSite {
  std::size_t gate_index;
  bool stuck_value;
};

struct FaultImpact {
  FaultSite site;
  double detect_rate = 0.0;        ///< fraction of vectors with any output flip
  double mean_rel_error = 0.0;     ///< mean |faulty - golden| / max(golden, 1)
  double worst_rel_error = 0.0;
};

struct FaultReport {
  std::size_t sites_analyzed = 0;
  std::size_t sites_undetected = 0;  ///< never observable on the sampled vectors
  double mean_rel_error = 0.0;       ///< over detected sites
  double worst_rel_error = 0.0;
  std::vector<FaultImpact> worst_sites;  ///< up to 10, sorted worst first
};

/// Fault sites carried per packed sweep: lane 0 of the 64-lane simulator is
/// the fault-free golden circuit, lanes 1..63 each carry one stuck-at site.
inline constexpr std::size_t kFaultLanesPerSweep = 63;

/// Simulates every (sampled) stuck-at site under `vectors` random input
/// vectors, comparing the first output port's integer value against the
/// fault-free golden run.  When the module has more than `max_sites` fault
/// sites (2 per gate), a seeded sample of that size is analyzed.
///
/// Runs on the 64-lane packed engine: sites are processed in groups of
/// kFaultLanesPerSweep against a shared broadcast stimulus, so the campaign
/// costs O(sites/63 x vectors) netlist sweeps instead of O(sites x vectors).
/// Groups are sharded over the persistent pool; `threads` (0 or negative =
/// all cores) never changes the report — per-site statistics are
/// accumulated in stimulus order and reduced in site order, bit-identical
/// to the scalar reference below.
[[nodiscard]] FaultReport analyze_fault_impact(const Module& module, int vectors = 200,
                                               std::uint64_t seed = 0xFA017,
                                               std::size_t max_sites = 2000,
                                               int threads = 0);

/// The scalar single-lane implementation (one Simulator sweep per
/// (site, vector) pair, the site applied with Simulator::force_gate), kept
/// as the bit-exact cross-check reference.
[[nodiscard]] FaultReport analyze_fault_impact_reference(const Module& module,
                                                         int vectors = 200,
                                                         std::uint64_t seed = 0xFA017,
                                                         std::size_t max_sites = 2000);

}  // namespace realm::hw
