#include "realm/hw/components.hpp"

#include <algorithm>
#include <stdexcept>

#include "realm/numeric/bits.hpp"

namespace realm::hw {

AddResult half_adder(Module& m, NetId a, NetId b) {
  return {{m.xor2(a, b)}, m.and2(a, b)};
}

AddResult full_adder(Module& m, NetId a, NetId b, NetId cin) {
  const NetId axb = m.xor2(a, b);
  const NetId sum = m.xor2(axb, cin);
  const NetId carry = m.or2(m.and2(a, b), m.and2(axb, cin));
  return {{sum}, carry};
}

AddResult ripple_add(Module& m, Bus a, Bus b, NetId cin) {
  const int width = static_cast<int>(std::max(a.size(), b.size()));
  a = resize(a, width);
  b = resize(b, width);
  Bus sum(static_cast<std::size_t>(width));
  NetId carry = cin;
  for (int i = 0; i < width; ++i) {
    const auto fa = full_adder(m, a[static_cast<std::size_t>(i)],
                               b[static_cast<std::size_t>(i)], carry);
    sum[static_cast<std::size_t>(i)] = fa.sum[0];
    carry = fa.carry;
  }
  return {std::move(sum), carry};
}

AddResult kogge_stone_add(Module& m, Bus a, Bus b, NetId cin) {
  const int width = static_cast<int>(std::max(a.size(), b.size()));
  a = resize(a, width);
  b = resize(b, width);
  // Generate/propagate pairs, then log2(width) prefix levels computing the
  // group (G, P) over bits [0..i].
  std::vector<NetId> g(static_cast<std::size_t>(width)), p(static_cast<std::size_t>(width));
  std::vector<NetId> sum_p(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    g[ui] = m.and2(a[ui], b[ui]);
    p[ui] = m.xor2(a[ui], b[ui]);
    sum_p[ui] = p[ui];  // per-bit propagate for the sum stage
  }
  for (int dist = 1; dist < width; dist <<= 1) {
    std::vector<NetId> g2 = g, p2 = p;
    for (int i = dist; i < width; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const auto uj = static_cast<std::size_t>(i - dist);
      g2[ui] = m.or2(g[ui], m.and2(p[ui], g[uj]));
      p2[ui] = m.and2(p[ui], p[uj]);
    }
    g = std::move(g2);
    p = std::move(p2);
  }
  // carry into bit i = G[i-1] | (P[i-1] & cin); carry into bit 0 = cin.
  Bus sum(static_cast<std::size_t>(width));
  NetId carry_in = cin;
  for (int i = 0; i < width; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    sum[ui] = m.xor2(sum_p[ui], carry_in);
    carry_in = m.or2(g[ui], m.and2(p[ui], cin));
  }
  return {std::move(sum), carry_in};
}

AddResult add_with_arch(Module& m, const Bus& a, const Bus& b, AdderArch arch,
                        NetId cin) {
  switch (arch) {
    case AdderArch::kKoggeStone: return kogge_stone_add(m, a, b, cin);
    case AdderArch::kRipple: break;
  }
  return ripple_add(m, a, b, cin);
}

SubResult ripple_sub(Module& m, Bus a, Bus b) {
  const int width = static_cast<int>(std::max(a.size(), b.size()));
  a = resize(a, width);
  b = resize(b, width);
  // a - b = a + ~b + 1; borrow = !carry.
  Bus nb(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) nb[static_cast<std::size_t>(i)] =
      m.inv(b[static_cast<std::size_t>(i)]);
  auto add = ripple_add(m, a, nb, kConst1);
  return {std::move(add.sum), m.inv(add.carry)};
}

Bus wallace_multiply(Module& m, const Bus& a, const Bus& b) {
  const int wa = static_cast<int>(a.size());
  const int wb = static_cast<int>(b.size());
  const int wp = wa + wb;
  std::vector<std::vector<NetId>> columns(static_cast<std::size_t>(wp));
  for (int i = 0; i < wb; ++i) {
    for (int j = 0; j < wa; ++j) {
      const NetId pp = m.and2(a[static_cast<std::size_t>(j)], b[static_cast<std::size_t>(i)]);
      if (pp != kConst0) columns[static_cast<std::size_t>(i + j)].push_back(pp);
    }
  }
  return compress_columns(m, std::move(columns), wp);
}

Bus compress_columns(Module& m, std::vector<std::vector<NetId>> columns, int width) {
  columns.resize(static_cast<std::size_t>(width));
  // Constants in a column contribute fixed weight: fold ones pairwise into
  // the next column (two 1s of weight 2^c are one 1 of weight 2^(c+1)).
  for (std::size_t c = 0; c < columns.size(); ++c) {
    auto& col = columns[c];
    const auto ones = static_cast<std::size_t>(
        std::count(col.begin(), col.end(), kConst1));
    std::erase_if(col, [](NetId n) { return n == kConst0 || n == kConst1; });
    if (ones % 2 != 0) col.push_back(kConst1);
    if (c + 1 < columns.size()) {
      for (std::size_t k = 0; k < ones / 2; ++k) columns[c + 1].push_back(kConst1);
    }
  }

  // 3:2 reduction until every column holds at most two bits.
  bool again = true;
  while (again) {
    again = false;
    std::vector<std::vector<NetId>> next(columns.size());
    for (std::size_t c = 0; c < columns.size(); ++c) {
      auto& col = columns[c];
      std::size_t i = 0;
      while (col.size() - i >= 3) {
        const auto fa = full_adder(m, col[i], col[i + 1], col[i + 2]);
        next[c].push_back(fa.sum[0]);
        if (c + 1 < next.size()) next[c + 1].push_back(fa.carry);
        i += 3;
      }
      if (col.size() - i == 2 && col.size() > 2) {
        const auto ha = half_adder(m, col[i], col[i + 1]);
        next[c].push_back(ha.sum[0]);
        if (c + 1 < next.size()) next[c + 1].push_back(ha.carry);
        i += 2;
      }
      for (; i < col.size(); ++i) next[c].push_back(col[i]);
    }
    columns = std::move(next);
    for (const auto& col : columns) {
      if (col.size() > 2) again = true;
    }
  }

  // Final carry-propagate addition of the two remaining rows.
  Bus row0(columns.size(), kConst0), row1(columns.size(), kConst0);
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (!columns[c].empty()) row0[c] = columns[c][0];
    if (columns[c].size() > 1) row1[c] = columns[c][1];
  }
  auto add = ripple_add(m, row0, row1);
  return resize(add.sum, width);
}

LodResult leading_one_detector(Module& m, const Bus& a) {
  const int n = static_cast<int>(a.size());
  if (n < 1) throw std::invalid_argument("leading_one_detector: empty bus");
  // prefix[i] = OR of bits >= i.
  std::vector<NetId> prefix(static_cast<std::size_t>(n));
  prefix[static_cast<std::size_t>(n - 1)] = a[static_cast<std::size_t>(n - 1)];
  for (int i = n - 2; i >= 0; --i) {
    prefix[static_cast<std::size_t>(i)] =
        m.or2(a[static_cast<std::size_t>(i)], prefix[static_cast<std::size_t>(i + 1)]);
  }
  // onehot[i] = a[i] & ~prefix[i+1].
  std::vector<NetId> onehot(static_cast<std::size_t>(n));
  onehot[static_cast<std::size_t>(n - 1)] = a[static_cast<std::size_t>(n - 1)];
  for (int i = 0; i < n - 1; ++i) {
    onehot[static_cast<std::size_t>(i)] =
        m.and2(a[static_cast<std::size_t>(i)], m.inv(prefix[static_cast<std::size_t>(i + 1)]));
  }
  // Binary encode.
  const int kbits = std::max(1, num::clog2(static_cast<std::uint64_t>(n)));
  Bus position(static_cast<std::size_t>(kbits), kConst0);
  for (int bit = 0; bit < kbits; ++bit) {
    NetId acc = kConst0;
    for (int i = 0; i < n; ++i) {
      if ((i >> bit) & 1) acc = m.or2(acc, onehot[static_cast<std::size_t>(i)]);
    }
    position[static_cast<std::size_t>(bit)] = acc;
  }
  return {std::move(position), m.inv(prefix[0])};
}

namespace {

Bus barrel_shift(Module& m, const Bus& data, const Bus& amount, int out_width,
                 bool left) {
  Bus cur = resize(data, out_width);
  for (std::size_t s = 0; s < amount.size(); ++s) {
    const int shift = 1 << s;
    Bus shifted(static_cast<std::size_t>(out_width), kConst0);
    for (int i = 0; i < out_width; ++i) {
      const int src = left ? i - shift : i + shift;
      if (src >= 0 && src < out_width) {
        shifted[static_cast<std::size_t>(i)] = cur[static_cast<std::size_t>(src)];
      }
    }
    cur = mux_bus(m, amount[s], cur, shifted);
  }
  return cur;
}

}  // namespace

Bus barrel_shift_left(Module& m, const Bus& data, const Bus& amount, int out_width) {
  return barrel_shift(m, data, amount, out_width, true);
}

Bus barrel_shift_right(Module& m, const Bus& data, const Bus& amount, int out_width) {
  return barrel_shift(m, data, amount, out_width, false);
}

Bus mux_bus(Module& m, NetId sel, const Bus& d0, const Bus& d1) {
  if (d0.size() != d1.size()) throw std::invalid_argument("mux_bus: width mismatch");
  Bus out(d0.size());
  for (std::size_t i = 0; i < d0.size(); ++i) out[i] = m.mux(sel, d0[i], d1[i]);
  return out;
}

Bus constant_lut(Module& m, const Bus& select, const std::vector<std::uint64_t>& values,
                 int width) {
  const std::size_t needed = std::size_t{1} << select.size();
  if (values.size() != needed) {
    throw std::invalid_argument("constant_lut: values must cover the select space");
  }
  Bus out(static_cast<std::size_t>(width));
  for (int bit = 0; bit < width; ++bit) {
    // Leaf layer: the constant bit per entry; fold up one select line at a
    // time (LSB first).
    std::vector<NetId> layer(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      layer[i] = ((values[i] >> bit) & 1u) ? kConst1 : kConst0;
    }
    for (std::size_t s = 0; s < select.size(); ++s) {
      std::vector<NetId> next(layer.size() / 2);
      for (std::size_t i = 0; i < next.size(); ++i) {
        next[i] = m.mux(select[s], layer[2 * i], layer[2 * i + 1]);
      }
      layer = std::move(next);
    }
    out[static_cast<std::size_t>(bit)] = layer[0];
  }
  return out;
}

NetId or_reduce(Module& m, const Bus& a) {
  NetId acc = kConst0;
  for (const NetId n : a) acc = m.or2(acc, n);
  return acc;
}

Bus resize(const Bus& a, int width) {
  Bus out(static_cast<std::size_t>(width), kConst0);
  for (std::size_t i = 0; i < a.size() && i < out.size(); ++i) out[i] = a[i];
  return out;
}

Bus slice(const Bus& a, int hi, int lo) {
  if (lo < 0 || hi < lo || hi >= static_cast<int>(a.size())) {
    throw std::invalid_argument("slice: bad range");
  }
  return {a.begin() + lo, a.begin() + hi + 1};
}

Bus concat(const Bus& lo, const Bus& hi) {
  Bus out = lo;
  out.insert(out.end(), hi.begin(), hi.end());
  return out;
}

}  // namespace realm::hw
