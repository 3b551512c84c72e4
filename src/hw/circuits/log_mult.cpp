#include "builders.hpp"
#include "log_common.hpp"
#include "realm/hw/components.hpp"
#include "realm/multipliers/mbm.hpp"

namespace realm::hw {

Module build_log_multiplier(const LogMultOptions& opts) {
  const int n = opts.n;
  const int f = n - 1 - opts.t;

  std::string name = "calm" + std::to_string(n);
  if (opts.mbm_correction) name = "mbm" + std::to_string(n) + "_t" + std::to_string(opts.t);
  if (opts.approx_adder_bits > 0) {
    name = (opts.approx_adder == mult::AlmAdder::kSetOne ? "alm_soa" : "alm_maa") +
           std::to_string(n) + "_m" + std::to_string(opts.approx_adder_bits);
  }
  Module m{name};
  const Bus a = m.add_input("a", n);
  const Bus b = m.add_input("b", n);

  const auto oa = detail::log_extract(m, a, opts.t, opts.mbm_correction);
  const auto ob = detail::log_extract(m, b, opts.t, opts.mbm_correction);

  // Fraction adder — exact, or approximate on the low m bits (ALM [9]).
  Bus frac(static_cast<std::size_t>(f));
  NetId c_of = kConst0;
  const int am = opts.approx_adder_bits;
  if (am == 0) {
    const auto add = ripple_add(m, oa.frac, ob.frac);
    frac = add.sum;
    c_of = add.carry;
  } else {
    NetId carry_in = kConst0;
    if (opts.approx_adder == mult::AlmAdder::kSetOne) {
      for (int i = 0; i < am; ++i) frac[static_cast<std::size_t>(i)] = kConst1;
    } else {
      for (int i = 0; i < am; ++i) {
        frac[static_cast<std::size_t>(i)] = m.or2(oa.frac[static_cast<std::size_t>(i)],
                                                  ob.frac[static_cast<std::size_t>(i)]);
      }
      carry_in = m.and2(oa.frac[static_cast<std::size_t>(am - 1)],
                        ob.frac[static_cast<std::size_t>(am - 1)]);
    }
    if (am < f) {
      const auto add = ripple_add(m, slice(oa.frac, f - 1, am), slice(ob.frac, f - 1, am),
                                  carry_in);
      for (int i = am; i < f; ++i) {
        frac[static_cast<std::size_t>(i)] = add.sum[static_cast<std::size_t>(i - am)];
      }
      c_of = add.carry;
    } else {
      c_of = carry_in;  // whole fraction approximate; SOA/LOA drop the carry
    }
  }

  // Significand = (1.frac), plus MBM's quantized 1/12 correction when
  // enabled: REALM's correction stage with one segment (Eq. 13, M = 1),
  // whose constant mux folds to wires and inverters of c_of.
  Bus significand = resize(concat(frac, Bus{kConst1}), f + 2);
  if (opts.mbm_correction) {
    const Bus units =
        m.constant(mult::MbmMultiplier::correction_units(opts.q), opts.q + 1);
    significand = detail::add_correction(m, frac, units, c_of, opts.q);
  }

  // Characteristic sum (+ fraction carry).
  auto ksum = ripple_add(m, oa.k, ob.k);
  Bus kbus = concat(ksum.sum, Bus{ksum.carry});
  kbus = ripple_add(m, kbus, Bus{c_of}).sum;

  // With the correction the product can spill into bit 2N (the paper's
  // special case 1), so the corrected designs get a 2N+1-bit output bus.
  const int out_width = opts.mbm_correction ? 2 * n + 1 : 2 * n;
  Bus p = detail::final_scale(m, significand, kbus, f, out_width);
  const NetId valid = m.nor2(oa.zero, ob.zero);
  m.add_output("p", detail::gate_bus(m, p, valid));
  return m;
}

}  // namespace realm::hw
