// One datapath definition per multiplier family, and every kernel built from
// it.
//
// A family writes a small policy — how one operand decodes and how two
// decoded operands combine — and the templates here generate all three
// Multiplier entry points from it: scalar multiply(), the batch kernel and
// the range kernel (the fixed operand decoded once, ascending contiguous
// columns).  A fixed operand over arbitrary columns takes the base class's
// broadcast into the batch kernel.  Scalar and vector paths cannot drift
// apart because there is only one datapath; the gate-level netlists are the
// independent oracle (AmOracle/DatapathOracle in test_packed_simulator).
//
// Two shapes:
//   * log shape (cALM, MBM, REALM, ALM-SOA/MAA, ImpLM, IntALP):
//       decode(v, k)   -> {k: exponent, frac: log fraction, seg: correction
//                          segment}
//       combine(a, b)  -> {value, carry}, carry in {0, 1}
//       product        =  value · 2^(a.k + b.k + carry − f)
//   * fragment shape (DRUM, SSM, ESSM):
//       decode(v, k)   -> {k: shift, frac: fragment (v >> k) | seg,
//                          seg: the LSB forced into the fragment, 0 or 1}
//       product        =  (a.frac · b.frac) << (a.k + b.k)
//
// decode() gets the operand v and its leading-one position k (0 for v = 0).
// Log-shape kernels run a zero operand as 1 and blend its product to 0;
// a fragment-shape policy must decode 0 to a zero fragment instead, so its
// products need no blend.  Policies are branch-free, and every per-element
// value is a 64-bit lane, so the loops auto-vectorize (LOD -> vplzcntq,
// shifts -> vpsllvq/vpsrlvq, selects -> blends on the AVX-512 clone).  A
// policy that does not read k costs no LOD.
//
// The range kernel splits [b0, b0 + n) at the powers of two, so k_b is a
// constant per piece and every shift derived from it folds.  A policy may
// split further with piece_last(b, kb, last) -> the last column of the piece
// starting at b; it must keep decode(v, kb).k and .seg constant over that
// piece.  The kernel takes both from the piece's first column, which makes
// the exponent, a fragment's shift and any correction-table entry
// loop-invariant, and reduces a log product's final barrel shift to two
// constant shift pairs selected by the carry.

#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "realm/numeric/bits.hpp"
#include "realm/numeric/simd.hpp"

namespace realm::mult::dp {

enum class Shape { kLog, kFragment };

/// One decoded operand (field meaning per shape, see above).
struct Operand {
  std::uint64_t k;
  std::uint64_t frac;
  std::uint64_t seg;
};

/// Log-shape combine result: product = value · 2^(a.k + b.k + carry − f).
struct Term {
  std::uint64_t value;
  std::uint64_t carry;
};

[[gnu::always_inline]] inline std::uint64_t lod(std::uint64_t v) {
  return 63u - static_cast<std::uint64_t>(std::countl_zero(v));
}

/// The Mitchell input shifter: the bits below the leading one normalized to
/// a w-bit fraction, t LSBs truncated, `round` ORed into the new LSB (the
/// forced rounding bit of MBM/REALM).  The leading one always lands on bit
/// w, so the clearing mask is loop-invariant instead of the variable 1 << k.
[[gnu::always_inline]] inline std::uint64_t log_fraction(std::uint64_t v, std::uint64_t k,
                                                         std::uint64_t w, std::uint64_t t,
                                                         std::uint64_t round) {
  return (((v << (w - k)) ^ (std::uint64_t{1} << w)) >> t) | round;
}

/// piece_last for policies whose exponent or segment flips at the midpoint
/// 1.5 · 2^kb of each power-of-two interval (ImpLM, IntALP).
[[gnu::always_inline]] inline std::uint64_t half_last(std::uint64_t b, std::uint64_t kb,
                                                      std::uint64_t last) {
  if (kb == 0) return last;
  const std::uint64_t mid = std::uint64_t{3} << (kb - 1);
  return b < mid ? std::min(last, mid - 1) : last;
}

template <class P>
[[gnu::always_inline]] inline Operand decode(const P& p, std::uint64_t v) {
  if constexpr (P::kShape == Shape::kFragment) {
    return p.decode(v, lod(v | 1u));
  } else {
    const std::uint64_t v1 = v | static_cast<std::uint64_t>(v == 0);
    return p.decode(v1, lod(v1));
  }
}

// Zero-operand blend of a log-shape product; fragment products are already 0.
template <class P>
[[gnu::always_inline]] inline std::uint64_t live(std::uint64_t v, bool nonzero) {
  if constexpr (P::kShape == Shape::kFragment) {
    return v;
  } else {
    return nonzero ? v : 0;
  }
}

template <class P>
[[gnu::always_inline]] inline std::uint64_t product(const P& p, const Operand& a,
                                                    const Operand& b) {
  if constexpr (P::kShape == Shape::kFragment) {
    // Fragments are below 2^31, so a 32×32→64 multiply (vpmuludq) is exact.
    return (std::uint64_t{static_cast<std::uint32_t>(a.frac)} *
            static_cast<std::uint32_t>(b.frac))
           << (a.k + b.k);
  } else {
    const Term t = p.combine(a, b);
    // Both directions at masked (in-range) amounts so the select if-converts
    // to a blend; |d| < 64 always.
    const auto d = static_cast<std::int64_t>(a.k + b.k + t.carry) -
                   static_cast<std::int64_t>(p.f);
    const std::uint64_t shl = t.value << (static_cast<std::uint64_t>(d) & 63u);
    const std::uint64_t shr = t.value >> (static_cast<std::uint64_t>(-d) & 63u);
    return d >= 0 ? shl : shr;
  }
}

template <class P>
[[nodiscard]] std::uint64_t multiply(const P& p, std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  return product(p, p.decode(a, lod(a)), p.decode(b, lod(b)));
}

template <class P>
REALM_MULTIVERSION void batch(const P p, const std::uint64_t* __restrict a,
                              const std::uint64_t* __restrict b,
                              std::uint64_t* __restrict out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a0 = a[i];
    const std::uint64_t b0 = b[i];
    const std::uint64_t v = product(p, decode(p, a0), decode(p, b0));
    out[i] = live<P>(v, (a0 != 0) & (b0 != 0));
  }
}

// Columns [b_first, b_first + n), all with leading one kb and (per the
// piece_last contract) the first column's exponent and segment.
template <class P>
REALM_MULTIVERSION void piece_kernel(const P p, const Operand da, std::uint64_t b_first,
                                     std::uint64_t kb, std::uint64_t* __restrict out,
                                     std::size_t n) {
  const Operand first = p.decode(b_first, kb);
  if constexpr (P::kShape == Shape::kFragment) {
    for (std::size_t i = 0; i < n; ++i) {
      const Operand db{first.k, ((b_first + i) >> first.k) | first.seg, first.seg};
      out[i] = product(p, da, db);
    }
  } else {
    const auto d0 = static_cast<std::int64_t>(da.k + first.k) - static_cast<std::int64_t>(p.f);
    const std::uint64_t shl0 = d0 >= 0 ? static_cast<std::uint64_t>(d0) : 0;
    const std::uint64_t shr0 = d0 >= 0 ? 0 : static_cast<std::uint64_t>(-d0);
    const std::uint64_t shl1 = d0 >= -1 ? static_cast<std::uint64_t>(d0 + 1) : 0;
    const std::uint64_t shr1 = d0 >= -1 ? 0 : static_cast<std::uint64_t>(-d0 - 1);
    for (std::size_t i = 0; i < n; ++i) {
      Operand db = p.decode(b_first + i, kb);
      db.k = first.k;
      db.seg = first.seg;
      const Term t = p.combine(da, db);
      // The untaken carry case may wrap; both shift amounts stay below 64.
      const std::uint64_t v0 = (t.value << shl0) >> shr0;
      const std::uint64_t v1 = (t.value << shl1) >> shr1;
      out[i] = (t.carry != 0) ? v1 : v0;
    }
  }
}

template <class P>
void range(const P& p, std::uint64_t a_fixed, std::uint64_t b0, std::uint64_t* out,
           std::size_t n) {
  if (n == 0) return;
  if (a_fixed == 0) {  // zero-detect bypass: the whole row is zero
    std::fill_n(out, n, std::uint64_t{0});
    return;
  }
  const Operand da = p.decode(a_fixed, lod(a_fixed));
  std::uint64_t b = b0;
  const std::uint64_t last = b0 + n - 1;
  if (b == 0) {  // zero column: outside the piece loop
    out[0] = 0;
    b = 1;
  }
  while (b <= last) {
    const std::uint64_t kb = lod(b);
    std::uint64_t piece_last = std::min(last, (std::uint64_t{2} << kb) - 1);
    if constexpr (requires { p.piece_last(b, kb, piece_last); }) {
      piece_last = p.piece_last(b, kb, piece_last);
    }
    piece_kernel(p, da, b, kb, out + (b - b0), static_cast<std::size_t>(piece_last - b + 1));
    b = piece_last + 1;
  }
}

}  // namespace realm::mult::dp

/// Defines Class's three Multiplier entry points from its nested datapath
/// policy `Class::Policy`, constructed from the multiplier.
#define REALM_DATAPATH_ENTRY_POINTS(Class)                                              \
  std::uint64_t Class::multiply(std::uint64_t a, std::uint64_t b) const {              \
    assert(::realm::num::fits(a, width()) && ::realm::num::fits(b, width()));          \
    return ::realm::mult::dp::multiply(Policy{*this}, a, b);                           \
  }                                                                                     \
  void Class::multiply_batch(const std::uint64_t* a, const std::uint64_t* b,           \
                             std::uint64_t* out, std::size_t n) const {                \
    ::realm::mult::dp::batch(Policy{*this}, a, b, out, n);                             \
  }                                                                                     \
  void Class::multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,              \
                                 std::uint64_t* out, std::size_t n) const {            \
    assert(::realm::num::fits(a_fixed, width()) &&                                     \
           (n == 0 || ::realm::num::fits(b0 + n - 1, width())));                       \
    ::realm::mult::dp::range(Policy{*this}, a_fixed, b0, out, n);                      \
  }
