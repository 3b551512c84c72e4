// Gate-level UDM (recursive 2×2-block composition, Kulkarni [7]) and the
// constant-correction truncated multiplier.

#include <bit>
#include <stdexcept>

#include "realm/hw/circuits.hpp"
#include "realm/hw/components.hpp"
#include "realm/multipliers/udm.hpp"
#include "realm/numeric/bits.hpp"

namespace realm::hw {
namespace {

// 3-bit approximate 2×2 block: P0 = a0b0, P1 = a1b0 | a0b1, P2 = a1b1.
Bus udm_block(Module& m, const Bus& a, const Bus& b) {
  return {m.and2(a[0], b[0]),
          m.or2(m.and2(a[1], b[0]), m.and2(a[0], b[1])),
          m.and2(a[1], b[1])};
}

Bus udm_rec(Module& m, const Bus& a, const Bus& b) {
  const int n = static_cast<int>(a.size());
  if (n == 2) return resize(udm_block(m, a, b), 4);
  const int h = n / 2;
  const Bus ah = slice(a, n - 1, h), al = slice(a, h - 1, 0);
  const Bus bh = slice(b, n - 1, h), bl = slice(b, h - 1, 0);
  const Bus hh = udm_rec(m, ah, bh);
  const Bus hl = udm_rec(m, ah, bl);
  const Bus lh = udm_rec(m, al, bh);
  const Bus ll = udm_rec(m, al, bl);

  // (hh << n) + ((hl + lh) << h) + ll, all exact adders.
  const auto mid = ripple_add(m, hl, lh);
  Bus mid_bus = mid.sum;
  mid_bus.push_back(mid.carry);
  Bus acc(static_cast<std::size_t>(2 * n), kConst0);
  for (std::size_t i = 0; i < ll.size(); ++i) acc[i] = ll[i];
  Bus shifted_mid(static_cast<std::size_t>(2 * n), kConst0);
  for (std::size_t i = 0; i < mid_bus.size() && i + static_cast<std::size_t>(h) < acc.size(); ++i) {
    shifted_mid[i + static_cast<std::size_t>(h)] = mid_bus[i];
  }
  Bus shifted_hh(static_cast<std::size_t>(2 * n), kConst0);
  for (std::size_t i = 0; i < hh.size() && i + static_cast<std::size_t>(n) < acc.size(); ++i) {
    shifted_hh[i + static_cast<std::size_t>(n)] = hh[i];
  }
  acc = ripple_add(m, acc, shifted_mid).sum;
  acc = ripple_add(m, acc, shifted_hh).sum;
  return acc;
}

}  // namespace

Module build_udm(int n) {
  if (n < 2 || n > 16 || !std::has_single_bit(static_cast<unsigned>(n))) {
    throw std::invalid_argument("build_udm: N must be a power of two in [2, 16]");
  }
  Module m{"udm" + std::to_string(n)};
  const Bus a = m.add_input("a", n);
  const Bus b = m.add_input("b", n);
  m.add_output("p", udm_rec(m, a, b));
  return m;
}

Module build_truncated(int n, int drop) {
  // The model checks n and drop and owns the correction constant.
  const std::uint64_t corr = mult::TruncatedMultiplier{n, drop}.correction();
  Module m{"trunc" + std::to_string(n) + "_d" + std::to_string(drop)};
  const Bus a = m.add_input("a", n);
  const Bus b = m.add_input("b", n);

  std::vector<std::vector<NetId>> columns(static_cast<std::size_t>(2 * n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i + j < drop) continue;
      columns[static_cast<std::size_t>(i + j)].push_back(
          m.and2(a[static_cast<std::size_t>(j)], b[static_cast<std::size_t>(i)]));
    }
  }
  for (int bit = 0; corr >> bit != 0; ++bit) {
    if ((corr >> bit) & 1u) {
      const int col = drop + bit;
      if (col < 2 * n) columns[static_cast<std::size_t>(col)].push_back(kConst1);
    }
  }
  m.add_output("p", compress_columns(m, std::move(columns), 2 * n));
  return m;
}

}  // namespace realm::hw
