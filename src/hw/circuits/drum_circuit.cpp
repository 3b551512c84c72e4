#include "builders.hpp"
#include "realm/hw/components.hpp"

namespace realm::hw {

Module build_drum(int n, int k) {
  Module m{"drum" + std::to_string(n) + "_k" + std::to_string(k)};
  const Bus a = m.add_input("a", n);
  const Bus b = m.add_input("b", n);

  struct Frag {
    Bus bits;
    Bus shift;
  };
  const auto fragment = [&](const Bus& in) -> Frag {
    const auto lod = leading_one_detector(m, in);
    const int kw = static_cast<int>(lod.position.size());
    // shift = max(0, pos - (k-1)); LSB forced to 1 when pos >= k.
    const auto sub = ripple_sub(m, lod.position,
                                m.constant(static_cast<std::uint64_t>(k - 1), kw));
    Bus shift(sub.diff.size());
    for (std::size_t i = 0; i < shift.size(); ++i) {
      shift[i] = m.and2(sub.diff[i], m.inv(sub.borrow));
    }
    const auto sub2 = ripple_sub(m, lod.position,
                                 m.constant(static_cast<std::uint64_t>(k), kw));
    const NetId force = m.inv(sub2.borrow);  // pos >= k
    Bus frag = slice(barrel_shift_right(m, in, shift, n), k - 1, 0);
    frag[0] = m.or2(frag[0], force);
    return {std::move(frag), std::move(shift)};
  };

  const Frag fa = fragment(a);
  const Frag fb = fragment(b);
  const Bus prod = wallace_multiply(m, fa.bits, fb.bits);
  const auto shift_add = ripple_add(m, fa.shift, fb.shift);
  const Bus total_shift = concat(shift_add.sum, Bus{shift_add.carry});
  // Shift sum fits: both shifts <= n-k, total <= 2(n-k) < 2n.
  const Bus p = barrel_shift_left(m, prod, total_shift, 2 * n);
  m.add_output("p", p);
  return m;
}

}  // namespace realm::hw
