// Reusable RTL component generators.
//
// Every multiplier circuit in src/hw/circuits/ is composed from these
// builders.  All buses are LSB-first.  Builders only create gates — they
// never declare ports — so they compose freely inside a Module.

#pragma once

#include <cstdint>
#include <vector>

#include "realm/hw/netlist.hpp"

namespace realm::hw {

struct AddResult {
  Bus sum;      ///< same width as the widest operand
  NetId carry;  ///< carry out
};

/// sum/carry of a half adder.
[[nodiscard]] AddResult half_adder(Module& m, NetId a, NetId b);

/// sum/carry of a full adder (mirror-style: 2 XOR, 2 AND, 1 OR).
[[nodiscard]] AddResult full_adder(Module& m, NetId a, NetId b, NetId cin);

/// Ripple-carry addition of two buses (zero-extended to equal width).
[[nodiscard]] AddResult ripple_add(Module& m, Bus a, Bus b, NetId cin = kConst0);

/// Kogge-Stone parallel-prefix adder: log-depth carries, the architecture a
/// 1 GHz synthesis run would pick for wide additions (at ~2× ripple area).
[[nodiscard]] AddResult kogge_stone_add(Module& m, Bus a, Bus b, NetId cin = kConst0);

/// Adder architecture selector for parameterized datapaths.
enum class AdderArch { kRipple, kKoggeStone };
[[nodiscard]] AddResult add_with_arch(Module& m, const Bus& a, const Bus& b,
                                      AdderArch arch, NetId cin = kConst0);

/// Carry-save reduction of a column matrix (column c holds bits of weight
/// 2^c) down to two rows plus a final carry-propagate add; `width` is the
/// result width.  This is Wallace's reduction exposed for reuse (Booth
/// recoding, multi-operand accumulation).
[[nodiscard]] Bus compress_columns(Module& m, std::vector<std::vector<NetId>> columns,
                                   int width);

/// a - b for equal-width buses; `borrow` is 1 when a < b.
struct SubResult {
  Bus diff;
  NetId borrow;
};
[[nodiscard]] SubResult ripple_sub(Module& m, Bus a, Bus b);

/// Wallace-tree reduction of the partial products of a×b down to a
/// carry-propagate add; result is a (|a|+|b|)-bit product bus.
[[nodiscard]] Bus wallace_multiply(Module& m, const Bus& a, const Bus& b);

/// Leading-one detector: binary position of the MSB set bit (clog2(width)
/// bits) plus a `none` flag that is 1 when the input is all zeros.
struct LodResult {
  Bus position;
  NetId none;
};
[[nodiscard]] LodResult leading_one_detector(Module& m, const Bus& a);

/// data << amount, zero fill, producing `out_width` bits.  `amount` is an
/// unsigned bus; shifts past out_width produce zeros.
[[nodiscard]] Bus barrel_shift_left(Module& m, const Bus& data, const Bus& amount,
                                    int out_width);

/// data >> amount, zero fill, producing `out_width` bits.
[[nodiscard]] Bus barrel_shift_right(Module& m, const Bus& data, const Bus& amount,
                                     int out_width);

/// Per-bit 2:1 mux of two equal-width buses: sel ? d1 : d0.
[[nodiscard]] Bus mux_bus(Module& m, NetId sel, const Bus& d0, const Bus& d1);

/// Hardwired constant lookup table: values[select] of `width` bits, realized
/// as a per-bit mux tree whose leaves are constants — Module's folding
/// collapses redundant subtrees exactly the way synthesis prunes a
/// constant-input multiplexer (the paper's REALM LUT, §III-C).
[[nodiscard]] Bus constant_lut(Module& m, const Bus& select,
                               const std::vector<std::uint64_t>& values, int width);

/// OR-reduction of a bus (1 when any bit set).
[[nodiscard]] NetId or_reduce(Module& m, const Bus& a);

/// Zero-extend (or truncate) a bus to `width` bits.
[[nodiscard]] Bus resize(const Bus& a, int width);

/// bits [hi:lo] of a bus.
[[nodiscard]] Bus slice(const Bus& a, int hi, int lo);

/// Concatenate: low bits from `lo`, then `hi` above them.
[[nodiscard]] Bus concat(const Bus& lo, const Bus& hi);

}  // namespace realm::hw
