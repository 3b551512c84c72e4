#include "log_common.hpp"

namespace realm::hw::detail {

LogOperand log_extract(Module& m, const Bus& in, int t, bool forced_one) {
  const int n = static_cast<int>(in.size());
  const int w = n - 1;
  const auto lod = leading_one_detector(m, in);

  // Normalize: shift the operand so the leading one lands on bit w, then
  // take bits [w-1:0] as the fraction.  Shift amount is (n-1) - position.
  const auto amt = ripple_sub(m, m.constant(static_cast<std::uint64_t>(w),
                                            static_cast<int>(lod.position.size())),
                              lod.position);
  const Bus shifted = barrel_shift_left(m, in, amt.diff, n);
  Bus frac = (w > 0) ? slice(shifted, w - 1, 0) : Bus{};

  // Truncate t LSBs; optionally tie the new LSB high (free in hardware).
  if (t > 0) frac = slice(frac, w - 1, t);
  if (forced_one && !frac.empty()) frac[0] = kConst1;

  return {lod.position, std::move(frac), lod.none};
}

Bus final_scale(Module& m, const Bus& significand, const Bus& ksum, int f,
                int out_width) {
  // Split the signed shift (ksum - f) into a left amount max(0, ksum-f) and
  // a right amount max(0, f-ksum); one of the two is always zero.
  const int kw = static_cast<int>(ksum.size());
  const Bus fconst = m.constant(static_cast<std::uint64_t>(f), kw);
  const auto left = ripple_sub(m, ksum, fconst);    // borrow => ksum < f
  const auto right = ripple_sub(m, fconst, ksum);   // valid when borrow

  const NetId use_right = left.borrow;
  Bus lamt(left.diff.size());
  for (std::size_t i = 0; i < lamt.size(); ++i) {
    lamt[i] = m.and2(left.diff[i], m.inv(use_right));
  }
  Bus ramt(right.diff.size());
  for (std::size_t i = 0; i < ramt.size(); ++i) {
    ramt[i] = m.and2(right.diff[i], use_right);
  }

  const Bus shifted_left = barrel_shift_left(m, significand, lamt, out_width);
  const Bus shifted_right =
      resize(barrel_shift_right(m, significand, ramt,
                                static_cast<int>(significand.size())),
             out_width);
  return mux_bus(m, use_right, shifted_left, shifted_right);
}

Bus add_correction(Module& m, const Bus& frac, const Bus& s_units, NetId c_of, int q) {
  const int f = static_cast<int>(frac.size());
  // In 2^-(q+1) units s is s_units shifted left by one, so the s vs s>>1
  // mux is pure wiring plus per-bit 2:1 muxes.
  const int q1 = q + 1;
  const Bus s_full = resize(concat(Bus{kConst0}, s_units), q1);  // units << 1
  const Bus s_half = resize(s_units, q1);                          // units
  const Bus s_sel = mux_bus(m, c_of, s_full, s_half);
  Bus s_aligned;
  if (f >= q1) {
    s_aligned = concat(Bus(static_cast<std::size_t>(f - q1), kConst0), s_sel);
  } else {
    s_aligned = slice(s_sel, q1 - 1, q1 - f);
  }
  return ripple_add(m, resize(concat(frac, Bus{kConst1}), f + 2),
                    resize(s_aligned, f + 2)).sum;
}

Bus sext(const Bus& in, int width) {
  Bus out(static_cast<std::size_t>(width), in.empty() ? kConst0 : in.back());
  for (std::size_t i = 0; i < in.size() && i < out.size(); ++i) out[i] = in[i];
  return out;
}

Bus gate_bus(Module& m, const Bus& bus, NetId enable) {
  Bus out(bus.size());
  for (std::size_t i = 0; i < bus.size(); ++i) out[i] = m.and2(bus[i], enable);
  return out;
}

}  // namespace realm::hw::detail
