// Exact multiplier architectures.  Table I's reference is the Wallace tree
// (the paper implements "the accurate multipliers ... using Wallace tree");
// the array and radix-4 Booth variants are architecture ablations for the
// reference point.

#include <stdexcept>

#include "realm/hw/circuits.hpp"
#include "realm/hw/components.hpp"

namespace realm::hw {

Module build_accurate(int n) {
  Module m{"accurate_wallace" + std::to_string(n)};
  const Bus a = m.add_input("a", n);
  const Bus b = m.add_input("b", n);
  const Bus p = wallace_multiply(m, a, b);
  m.add_output("p", p);
  return m;
}

Module build_accurate_array(int n) {
  Module m{"accurate_array" + std::to_string(n)};
  const Bus a = m.add_input("a", n);
  const Bus b = m.add_input("b", n);
  // Row-by-row: acc += (b_i ? a : 0) << i, each row one ripple adder.
  Bus acc(static_cast<std::size_t>(2 * n), kConst0);
  for (int i = 0; i < n; ++i) {
    Bus row(static_cast<std::size_t>(2 * n), kConst0);
    for (int j = 0; j < n; ++j) {
      row[static_cast<std::size_t>(i + j)] =
          m.and2(a[static_cast<std::size_t>(j)], b[static_cast<std::size_t>(i)]);
    }
    acc = ripple_add(m, acc, row).sum;
  }
  m.add_output("p", acc);
  return m;
}

Module build_accurate_booth(int n) {
  if (n < 2) throw std::invalid_argument("build_accurate_booth: N >= 2");
  Module m{"accurate_booth" + std::to_string(n)};
  const Bus a = m.add_input("a", n);
  const Bus b = m.add_input("b", n);
  const int wp = 2 * n;

  // Radix-4 Booth digits d_k ∈ {-2,-1,0,1,2} from bits (b_{2k+1}, b_2k,
  // b_{2k-1}) of the *unsigned* multiplier extended with a zero MSB pair so
  // the final digit is non-negative.
  const auto bit = [&](int i) { return i < 0 || i >= n ? kConst0 : b[static_cast<std::size_t>(i)]; };
  std::vector<std::vector<NetId>> columns(static_cast<std::size_t>(wp + 2));

  const int digits = n / 2 + 1;
  for (int k = 0; k < digits; ++k) {
    const NetId b2k1 = bit(2 * k + 1);  // sign of the digit
    const NetId b2k = bit(2 * k);
    const NetId b2km1 = bit(2 * k - 1);
    // |d| = 1 when b2k ^ b2km1; |d| = 2 when (b2k == b2km1) and b2k1 differs.
    const NetId one = m.xor2(b2k, b2km1);
    const NetId two = m.and2(m.xnor2(b2k, b2km1), m.xor2(b2k1, b2k));
    const NetId neg = b2k1;

    // Magnitude row: (one ? a : 0) | (two ? a<<1 : 0), width n+1; negation
    // via XOR with `neg` plus a +neg correction bit at the row's LSB column.
    // Sign-extension handled by the standard trick: extend with ~s, 1.
    const int shift = 2 * k;
    std::vector<NetId> row(static_cast<std::size_t>(n + 1), kConst0);
    for (int j = 0; j <= n; ++j) {
      const NetId a1 = (j < n) ? m.and2(one, a[static_cast<std::size_t>(j)]) : kConst0;
      const NetId a2 = (j >= 1) ? m.and2(two, a[static_cast<std::size_t>(j - 1)]) : kConst0;
      row[static_cast<std::size_t>(j)] = m.or2(a1, a2);
    }
    // Two's-complement row, fully sign-extended to the product width
    // (arithmetic is modulo 2^(wp+2), so the extension is exact): bits
    // within the magnitude are XORed with neg, bits above it extend as neg.
    for (int col = shift; col < wp + 2; ++col) {
      const int j = col - shift;
      const NetId bit_j = (j <= n) ? m.xor2(row[static_cast<std::size_t>(j)], neg) : neg;
      columns[static_cast<std::size_t>(col)].push_back(bit_j);
    }
    // +neg completes the two's complement of the row.
    columns[static_cast<std::size_t>(shift)].push_back(neg);
  }

  Bus p = compress_columns(m, std::move(columns), wp + 2);
  m.add_output("p", slice(p, wp - 1, 0));
  return m;
}

}  // namespace realm::hw
