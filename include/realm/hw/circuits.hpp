// Gate-level circuit builders for every design of Table I.
//
// Each builder returns a self-contained combinational Module with input
// ports "a", "b" (N bits each) and output port "p".  The netlists are
// simulated (hw/simulator.hpp) to cross-validate against the behavioral
// models bit-for-bit, costed for area (netlist.hpp) and power (power.hpp),
// and can be emitted as structural Verilog (verilog.hpp).

#pragma once

#include <string>

#include "realm/core/realm_multiplier.hpp"
#include "realm/hw/components.hpp"
#include "realm/hw/netlist.hpp"
#include "realm/multipliers/alm.hpp"
#include "realm/multipliers/am.hpp"

namespace realm::hw {

/// Exact Wallace-tree multiplier — the paper's accurate reference design.
[[nodiscard]] Module build_accurate(int n);

/// Exact array multiplier (row-by-row ripple accumulation) — smaller cells,
/// much longer critical path; an architecture ablation for the reference.
[[nodiscard]] Module build_accurate_array(int n);

/// Exact radix-4 Booth-recoded multiplier with Wallace reduction — halves
/// the partial-product count, the common high-performance choice.
[[nodiscard]] Module build_accurate_booth(int n);

/// Options shared by the Mitchell-derived log multipliers.
struct LogMultOptions {
  int n = 16;
  int t = 0;            ///< truncated fraction LSBs
  bool forced_one = false;  ///< MBM/REALM rounding bit on the kept LSB
  bool mbm_correction = false;  ///< add the quantized 1/12 correction
  int q = 6;            ///< correction quantization bits
  int approx_adder_bits = 0;    ///< m — approximate low bits of the fraction adder
  mult::AlmAdder approx_adder = mult::AlmAdder::kSetOne;  ///< when m > 0
};

/// cALM (defaults), MBM (mbm_correction + forced_one), ALM-SOA/ALM-MAA
/// (approx_adder_bits > 0).
[[nodiscard]] Module build_log_multiplier(const LogMultOptions& opts);

/// REALM (paper Fig. 3), including the hardwired constant LUT.
[[nodiscard]] Module build_realm(const core::RealmConfig& cfg);

/// ImpLM with nearest-one detector and exact adder.
[[nodiscard]] Module build_implm(int n);

/// DRUM with k-bit dynamic fragments.
[[nodiscard]] Module build_drum(int n, int k);

/// SSM with m-bit static segments; ESSM with the extra mid segment.
[[nodiscard]] Module build_ssm(int n, int m);
[[nodiscard]] Module build_essm(int n, int m);

/// AM1/AM2 with nb recovered columns.
[[nodiscard]] Module build_am(int n, int nb, mult::AmVariant variant);

/// IntALP level 1 or 2.
[[nodiscard]] Module build_intalp(int n, int level);

/// Spec-string dispatch over the design table of mult::parse_spec(), which
/// mult::make_multiplier() reads too, so a spec names one configuration for
/// model and netlist.  The returned module is pruned (dead gates removed).
[[nodiscard]] Module build_circuit(const std::string& spec, int n = 16);

/// Same dispatch without the final prune (for netlist-construction tests).
[[nodiscard]] Module build_circuit_unpruned(const std::string& spec, int n = 16);

}  // namespace realm::hw
