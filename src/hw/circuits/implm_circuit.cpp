// ImpLM gate-level model: nearest-one detector (LOD + round bit), signed
// fraction datapath, exact adder, final scaling.

#include "builders.hpp"
#include "log_common.hpp"
#include "realm/hw/components.hpp"

namespace realm::hw {

Module build_implm(int n) {
  Module m{"implm" + std::to_string(n)};
  const Bus a = m.add_input("a", n);
  const Bus b = m.add_input("b", n);
  const int w = n - 1;

  struct Op {
    Bus khat;   ///< nearest-one characteristic
    Bus fhat;   ///< signed fraction, two's complement, w+1 bits
    NetId zero;
  };
  const auto extract = [&](const Bus& in) -> Op {
    const auto lod = leading_one_detector(m, in);
    const auto amt = ripple_sub(
        m, m.constant(static_cast<std::uint64_t>(w),
                      static_cast<int>(lod.position.size())),
        lod.position);
    const Bus shifted = barrel_shift_left(m, in, amt.diff, n);
    const Bus frac = slice(shifted, w - 1, 0);
    const NetId r = frac[static_cast<std::size_t>(w - 1)];  // round-to-nearest bit

    // k_hat = position + r.
    auto kadd = ripple_add(m, lod.position, Bus{r});
    Bus khat = concat(kadd.sum, Bus{kadd.carry});

    // f_hat: r = 0 -> (0, frac);  r = 1 -> (frac - 2^w) >> 1 arithmetic,
    // whose two's-complement bits are {frac[w-1:1], 1, 1}; frac[w-1:1] is
    // empty at w = 1.
    Bus pos = concat(frac, Bus{kConst0});                       // w+1 bits
    Bus neg = concat(Bus(frac.begin() + 1, frac.end()), Bus{kConst1, kConst1});
    return {std::move(khat), mux_bus(m, r, pos, neg), lod.none};
  };

  const Op oa = extract(a);
  const Op ob = extract(b);

  // significand = 2^w + f_a + f_b, computed in w+2-bit two's complement;
  // the result is always positive (sum of fractions >= -1/2).
  const int sw = w + 2;
  Bus sum = ripple_add(m, detail::sext(oa.fhat, sw), detail::sext(ob.fhat, sw)).sum;
  sum = ripple_add(m, sum, m.constant(std::uint64_t{1} << w, sw)).sum;

  const auto kadd = ripple_add(m, oa.khat, ob.khat);
  const Bus ksum = concat(kadd.sum, Bus{kadd.carry});
  Bus p = detail::final_scale(m, sum, ksum, w, 2 * n);
  const NetId valid = m.nor2(oa.zero, ob.zero);
  m.add_output("p", detail::gate_bus(m, p, valid));
  return m;
}

}  // namespace realm::hw
