#include "builders.hpp"
#include "realm/hw/components.hpp"

namespace realm::hw {
namespace {

// Fixed re-wiring shift by `by` within a fixed width.
Bus wired_shift_left(const Bus& in, int by) {
  Bus out(in.size(), kConst0);
  for (std::size_t i = static_cast<std::size_t>(by); i < in.size(); ++i) {
    out[i] = in[i - static_cast<std::size_t>(by)];
  }
  return out;
}

}  // namespace

Module build_ssm(int n, int m_bits) {
  Module m{"ssm" + std::to_string(n) + "_m" + std::to_string(m_bits)};
  const Bus a = m.add_input("a", n);
  const Bus b = m.add_input("b", n);
  const int off = n - m_bits;

  const auto segment = [&](const Bus& in) -> std::pair<Bus, NetId> {
    if (off == 0) return {in, kConst0};
    const NetId hi = or_reduce(m, slice(in, n - 1, m_bits));
    return {mux_bus(m, hi, slice(in, m_bits - 1, 0), slice(in, n - 1, off)), hi};
  };
  const auto [sa, ha] = segment(a);
  const auto [sb, hb] = segment(b);

  Bus p = resize(wallace_multiply(m, sa, sb), 2 * n);
  if (off > 0) {
    p = mux_bus(m, ha, p, wired_shift_left(p, off));
    p = mux_bus(m, hb, p, wired_shift_left(p, off));
  }
  m.add_output("p", p);
  return m;
}

Module build_essm(int n, int m_bits) {
  Module m{"essm" + std::to_string(n) + "_m" + std::to_string(m_bits)};
  const Bus a = m.add_input("a", n);
  const Bus b = m.add_input("b", n);
  const int off_hi = n - m_bits;
  const int off_mid = off_hi / 2;

  struct Seg {
    Bus bits;
    NetId hi, mid;  // hi: top segment; mid: middle segment (hi wins)
  };
  const auto segment = [&](const Bus& in) -> Seg {
    if (off_hi == 0) return {in, kConst0, kConst0};
    const NetId hi = or_reduce(m, slice(in, n - 1, m_bits + off_mid));
    const NetId any_mid = or_reduce(m, slice(in, n - 1, m_bits));
    const NetId mid = m.and2(any_mid, m.inv(hi));
    Bus seg = mux_bus(m, mid, slice(in, m_bits - 1, 0),
                      slice(in, m_bits + off_mid - 1, off_mid));
    seg = mux_bus(m, hi, seg, slice(in, n - 1, off_hi));
    return {std::move(seg), hi, mid};
  };
  const Seg sa = segment(a);
  const Seg sb = segment(b);

  Bus p = resize(wallace_multiply(m, sa.bits, sb.bits), 2 * n);
  if (off_hi > 0) {
    // Offsets are multiples of off_mid: hi contributes two steps, mid one.
    const NetId step_a = m.or2(sa.hi, sa.mid);
    p = mux_bus(m, step_a, p, wired_shift_left(p, off_mid));
    p = mux_bus(m, sa.hi, p, wired_shift_left(p, off_mid));
    const NetId step_b = m.or2(sb.hi, sb.mid);
    p = mux_bus(m, step_b, p, wired_shift_left(p, off_mid));
    p = mux_bus(m, sb.hi, p, wired_shift_left(p, off_mid));
  }
  m.add_output("p", p);
  return m;
}

}  // namespace realm::hw
