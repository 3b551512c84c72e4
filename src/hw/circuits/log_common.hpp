// Internal helpers shared by the log-based multiplier circuits.

#pragma once

#include "realm/hw/components.hpp"
#include "realm/hw/netlist.hpp"

namespace realm::hw::detail {

struct LogOperand {
  Bus k;       ///< characteristic (clog2(n) bits)
  Bus frac;    ///< fraction, f = n-1-t bits, LSB-first
  NetId zero;  ///< 1 when the operand is zero
};

/// LOD + normalizing barrel shifter + truncation (paper Fig. 3 input stage).
/// When forced_one is set the kept LSB is tied to constant 1.
[[nodiscard]] LogOperand log_extract(Module& m, const Bus& in, int t, bool forced_one);

/// Final scaling stage: out = significand · 2^(ksum - f), truncated to an
/// integer, out_width bits.  `significand` carries f fraction bits; shifts
/// below f drop fraction bits (the paper's special case 2).
[[nodiscard]] Bus final_scale(Module& m, const Bus& significand, const Bus& ksum,
                              int f, int out_width);

/// REALM's correction stage (Eq. 13), and MBM's as its one-segment case:
/// the significand 1.frac plus s = s_units · 2^-q when the fraction sum did
/// not carry (c_of = 0) and s/2 when it did, aligned to the f = |frac|
/// fraction bits.  Returns the f+2-bit significand.
[[nodiscard]] Bus add_correction(Module& m, const Bus& frac, const Bus& s_units,
                                 NetId c_of, int q);

/// Sign-extend a two's-complement bus to `width` bits.
[[nodiscard]] Bus sext(const Bus& in, int width);

/// AND-mask every bit of `bus` with `enable` (zero-operand bypass).
[[nodiscard]] Bus gate_bus(Module& m, const Bus& bus, NetId enable);

}  // namespace realm::hw::detail
