// The per-family netlist builders behind hw::build_circuit, one row each in
// dispatch.cpp's table.  Internal: a builder checks none of its family's
// width rules, because build_circuit_unpruned constructs the family's
// behavioral model first and the model's constructor rejects what the
// hardware cannot realize.

#pragma once

#include "realm/core/realm_multiplier.hpp"
#include "realm/hw/netlist.hpp"
#include "realm/multipliers/alm.hpp"
#include "realm/multipliers/am.hpp"

namespace realm::hw {

/// Options shared by the Mitchell-derived log multipliers.
struct LogMultOptions {
  int n = 16;
  int t = 0;  ///< truncated fraction LSBs
  /// MBM: add the quantized 1/12 correction, with the rounding bit forced
  /// onto the kept LSB.
  bool mbm_correction = false;
  int q = 6;                  ///< correction quantization bits
  int approx_adder_bits = 0;  ///< m — approximate low bits of the fraction adder
  mult::AlmAdder approx_adder = mult::AlmAdder::kSetOne;  ///< when m > 0
};

/// cALM (defaults), MBM (mbm_correction), ALM-SOA/ALM-MAA
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

}  // namespace realm::hw
