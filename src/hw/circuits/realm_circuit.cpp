// REALM gate-level datapath (paper Fig. 3): LOD + barrel shifters, fraction
// adder, hardwired constant LUT addressed by the fraction MSBs, the
// s vs s>>1 mux, and the final scaling shifter.

#include "builders.hpp"
#include "log_common.hpp"
#include "realm/hw/components.hpp"

namespace realm::hw {

Module build_realm(const core::RealmConfig& cfg) {
  const int n = cfg.n;
  const int f = cfg.fraction_bits();
  // Shared cache: the cost model builds one circuit per sweep point, and
  // re-integrating Eq. 11 per point dwarfed the netlist construction itself.
  const auto lut_ptr = core::SegmentLut::shared(cfg.m, cfg.q);
  const core::SegmentLut& lut = *lut_ptr;

  Module m{"realm" + std::to_string(n) + "_m" + std::to_string(cfg.m) + "_t" +
           std::to_string(cfg.t)};
  const Bus a = m.add_input("a", n);
  const Bus b = m.add_input("b", n);

  const auto oa = detail::log_extract(m, a, cfg.t, /*forced_one=*/true);
  const auto ob = detail::log_extract(m, b, cfg.t, /*forced_one=*/true);

  const auto add = ripple_add(m, oa.frac, ob.frac);
  const Bus& frac = add.sum;
  const NetId c_of = add.carry;

  // LUT select lines: the log2(M) MSBs of each fraction; address = i·M + j
  // with i from operand a, so a's bits are the high select lines.
  const int sel_bits = lut.select_bits();
  const Bus sel = concat(slice(ob.frac, f - 1, f - sel_bits),
                         slice(oa.frac, f - 1, f - sel_bits));

  auto kadd1 = ripple_add(m, oa.k, ob.k);
  const Bus kraw = concat(kadd1.sum, Bus{kadd1.carry});
  const NetId valid = m.nor2(oa.zero, ob.zero);

  std::vector<std::uint64_t> entries(lut.all_units().begin(), lut.all_units().end());
  const Bus s_raw = constant_lut(m, sel, entries, lut.stored_bits());
  const Bus significand = detail::add_correction(m, frac, s_raw, c_of, cfg.q);

  const Bus kbus = ripple_add(m, kraw, Bus{c_of}).sum;

  Bus p = detail::final_scale(m, significand, kbus, f, 2 * n + 1);
  m.add_output("p", detail::gate_bus(m, p, valid));
  return m;
}

}  // namespace realm::hw
