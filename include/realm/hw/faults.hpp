// Stuck-at fault injection and impact analysis.
//
// Classic manufacturing-test machinery turned into an experiment: force a
// gate output stuck-at-0/1, re-simulate, and measure how far the arithmetic
// result moves.  Beyond test coverage, this quantifies a folk claim about
// approximate arithmetic — that its outputs degrade gracefully under
// defects compared to exact datapaths.

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

/// Random-pattern ATPG with fault dropping: draws random input vectors,
/// keeps only those that detect at least one not-yet-detected stuck-at
/// fault, and stops at the coverage target or the pattern budget.  Each
/// candidate is fault-simulated on the packed engine (63 undetected sites
/// per sweep).  The
/// result is a compact production test set for the netlist.  Run
/// Module::prune() first — faults on dead gates are untestable by
/// construction and only depress the coverage number.
struct AtpgResult {
  /// Kept patterns; each entry holds one value per input port.
  std::vector<std::vector<std::uint64_t>> patterns;
  /// Faults no pattern reached — candidates for formal redundancy proofs
  /// (see is_fault_redundant()).
  std::vector<FaultSite> undetected;
  std::size_t faults_total = 0;
  std::size_t faults_detected = 0;
  [[nodiscard]] double coverage() const noexcept {
    return faults_total == 0
               ? 0.0
               : static_cast<double>(faults_detected) / static_cast<double>(faults_total);
  }
};

/// Throws std::invalid_argument, as analyze_fault_impact does, for a module
/// without gates or an output, or max_candidates <= 0; and for a target
/// coverage outside (0, 1].
[[nodiscard]] AtpgResult generate_tests(const Module& module,
                                        double target_coverage = 0.98,
                                        int max_candidates = 20000,
                                        std::uint64_t seed = 0xA79);

/// True if any pattern in `patterns` makes `site` observable on the first
/// output port — the independent re-check for ATPG results.  Each pattern
/// holds one value per input port (Simulator::run's contract; any other
/// length throws std::invalid_argument).
[[nodiscard]] bool fault_detected(const Module& module, const FaultSite& site,
                                  const std::vector<std::vector<std::uint64_t>>& patterns);

/// The faulty circuit as its own module (gate output tied to the stuck
/// value), for formal analysis of a fault.
[[nodiscard]] Module inject_fault(const Module& module, const FaultSite& site);

/// Formal untestability proof: true iff the faulty circuit is equivalent to
/// the fault-free one on every input (BDD-based), i.e. the fault is
/// redundant and *no* test can ever detect it.
[[nodiscard]] bool is_fault_redundant(const Module& module, const FaultSite& site,
                                      std::size_t node_limit = 2'000'000);

}  // namespace realm::hw
