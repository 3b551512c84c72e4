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
// products need no blend.  Policies are branch-free, so the loops
// auto-vectorize (LOD -> vplzcnt, shifts -> vpsllv/vpsrlv, selects -> blends
// on the AVX-512 clone).  A policy that does not read k costs no LOD.
//
// Lane word.  A policy is a template over its lane word U (Policy<U>, with
// `using Word = U`), and every per-element value before the product is a U.
// Up to kNarrowMaxWidth = 16 bits the batch and range kernels run the
// Policy<std::uint32_t> instance, 16 pairs per 512-bit vector: operands are
// below 2^16, and every decoded field, fraction sum, carry, table index and
// significand stays below 2^31.  Only the product does not: it reaches 2N+1
// = 33 bits (REALM's and MBM's special case 1), so the final shift — both
// directions in the batch kernel, the two constant shift pairs in the range
// kernel, and a fragment product's shift — always runs in 64 bits.  Wider
// operands and scalar multiply() run the Policy<std::uint64_t> instance, so
// multiply() stays an oracle for the narrow kernels that shares only the
// policy's source with them.
//
// The range kernel splits [b0, b0 + n) at the powers of two, so k_b is a
// constant per piece and every shift derived from it folds.  A policy may
// split further with piece_last(b, kb, last) -> the last column of the piece
// starting at b (all three 64-bit); it must keep decode(v, kb).k and .seg
// constant over that piece.  The kernel takes both from the piece's first
// column, which makes the exponent, a fragment's shift and any
// correction-table entry loop-invariant, and reduces a log product's final
// barrel shift to two constant shift pairs selected by the carry.

#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "realm/numeric/bits.hpp"
#include "realm/numeric/simd.hpp"

namespace realm::mult::dp {

enum class Shape { kLog, kFragment };

/// Widest operand whose batch and range kernels run in 32-bit lanes.
inline constexpr int kNarrowMaxWidth = 16;

/// One decoded operand (field meaning per shape, see above).
template <class U>
struct Operand {
  U k;
  U frac;
  U seg;
};

/// Log-shape combine result: product = value · 2^(a.k + b.k + carry − f).
template <class U>
struct Term {
  U value;
  U carry;
};

template <class U>
[[gnu::always_inline]] inline U lod(U v) {
  return static_cast<U>(std::numeric_limits<U>::digits - 1 - std::countl_zero(v));
}

/// The Mitchell input shifter: the bits below the leading one normalized to
/// a w-bit fraction, t LSBs truncated, `round` ORed into the new LSB (the
/// forced rounding bit of MBM/REALM).  The leading one always lands on bit
/// w, so the clearing mask is loop-invariant instead of the variable 1 << k.
template <class U>
[[gnu::always_inline]] inline U log_fraction(U v, U k, U w, U t, U round) {
  return static_cast<U>((((v << (w - k)) ^ (U{1} << w)) >> t) | round);
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
[[gnu::always_inline]] inline Operand<typename P::Word> decode(const P& p,
                                                               typename P::Word v) {
  using U = typename P::Word;
  if constexpr (P::kShape == Shape::kFragment) {
    return p.decode(v, lod(static_cast<U>(v | 1u)));
  } else {
    const U v1 = v | static_cast<U>(v == 0);
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
[[gnu::always_inline]] inline std::uint64_t product(const P& p,
                                                    const Operand<typename P::Word>& a,
                                                    const Operand<typename P::Word>& b) {
  using U = typename P::Word;
  if constexpr (P::kShape == Shape::kFragment) {
    // A fragment is below 2^min(N, 31).  At N <= 16 the fragment product is
    // exact in the 32-bit lane (vpmulld, 16 lanes); wider ones take a
    // 32×32→64 multiply.
    const std::uint64_t frag =
        sizeof(U) == 4 ? std::uint64_t{static_cast<U>(a.frac * b.frac)}
                       : std::uint64_t{static_cast<std::uint32_t>(a.frac)} *
                             static_cast<std::uint32_t>(b.frac);
    return frag << (a.k + b.k);
  } else {
    using S = std::make_signed_t<U>;
    const Term<U> t = p.combine(a, b);
    // Both directions at masked (in-range) amounts so the select if-converts
    // to a blend; |d| < 64 always.
    const S d = static_cast<S>(a.k + b.k + t.carry) - static_cast<S>(p.f);
    const std::uint64_t value = t.value;
    const std::uint64_t shl = value << (static_cast<U>(d) & 63u);
    const std::uint64_t shr = value >> (static_cast<U>(-d) & 63u);
    return d >= 0 ? shl : shr;
  }
}

template <class P>
[[nodiscard]] std::uint64_t multiply(const P& p, std::uint64_t a, std::uint64_t b) {
  static_assert(std::is_same_v<typename P::Word, std::uint64_t>);
  if (a == 0 || b == 0) return 0;
  return product(p, p.decode(a, lod(a)), p.decode(b, lod(b)));
}

template <class P>
REALM_MULTIVERSION void batch(const P p, const std::uint64_t* __restrict a,
                              const std::uint64_t* __restrict b,
                              std::uint64_t* __restrict out, std::size_t n) {
  using U = typename P::Word;
  for (std::size_t i = 0; i < n; ++i) {
    const auto a0 = static_cast<U>(a[i]);
    const auto b0 = static_cast<U>(b[i]);
    const std::uint64_t v = product(p, decode(p, a0), decode(p, b0));
    out[i] = live<P>(v, (a0 != 0) & (b0 != 0));
  }
}

// Columns [b_first, b_first + n), all with leading one kb and (per the
// piece_last contract) the first column's exponent and segment.
template <class P>
REALM_MULTIVERSION void piece_kernel(const P p, const Operand<typename P::Word> da,
                                     typename P::Word b_first, typename P::Word kb,
                                     std::uint64_t* __restrict out, std::size_t n) {
  using U = typename P::Word;
  const Operand<U> first = p.decode(b_first, kb);
  if constexpr (P::kShape == Shape::kFragment) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto v = static_cast<U>(b_first + static_cast<U>(i));
      const Operand<U> db{first.k, static_cast<U>((v >> first.k) | first.seg), first.seg};
      out[i] = product(p, da, db);
    }
  } else {
    const auto d0 = static_cast<std::int64_t>(da.k + first.k) - static_cast<std::int64_t>(p.f);
    const std::uint64_t shl0 = d0 >= 0 ? static_cast<std::uint64_t>(d0) : 0;
    const std::uint64_t shr0 = d0 >= 0 ? 0 : static_cast<std::uint64_t>(-d0);
    const std::uint64_t shl1 = d0 >= -1 ? static_cast<std::uint64_t>(d0 + 1) : 0;
    const std::uint64_t shr1 = d0 >= -1 ? 0 : static_cast<std::uint64_t>(-d0 - 1);
    for (std::size_t i = 0; i < n; ++i) {
      Operand<U> db = p.decode(static_cast<U>(b_first + static_cast<U>(i)), kb);
      db.k = first.k;
      db.seg = first.seg;
      const Term<U> t = p.combine(da, db);
      // The untaken carry case may wrap; both shift amounts stay below 64.
      const std::uint64_t value = t.value;
      const std::uint64_t v0 = (value << shl0) >> shr0;
      const std::uint64_t v1 = (value << shl1) >> shr1;
      out[i] = (t.carry != 0) ? v1 : v0;
    }
  }
}

template <class P>
void range(const P& p, std::uint64_t a_fixed, std::uint64_t b0, std::uint64_t* out,
           std::size_t n) {
  using U = typename P::Word;
  if (n == 0) return;
  if (a_fixed == 0) {  // zero-detect bypass: the whole row is zero
    std::fill_n(out, n, std::uint64_t{0});
    return;
  }
  const auto a = static_cast<U>(a_fixed);
  const Operand<U> da = p.decode(a, lod(a));
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
    piece_kernel(p, da, static_cast<U>(b), static_cast<U>(kb), out + (b - b0),
                 static_cast<std::size_t>(piece_last - b + 1));
    b = piece_last + 1;
  }
}

/// The batch kernel of Policy's instance for m's width: 32-bit lanes up to
/// kNarrowMaxWidth bits, 64-bit lanes above.
template <template <class> class Policy, class M>
void batch_entry(const M& m, const std::uint64_t* a, const std::uint64_t* b,
                 std::uint64_t* out, std::size_t n) {
  if (m.width() <= kNarrowMaxWidth) {
    batch(Policy<std::uint32_t>{m}, a, b, out, n);
  } else {
    batch(Policy<std::uint64_t>{m}, a, b, out, n);
  }
}

/// The range kernel of Policy's instance for m's width, as batch_entry.
template <template <class> class Policy, class M>
void range_entry(const M& m, std::uint64_t a_fixed, std::uint64_t b0, std::uint64_t* out,
                 std::size_t n) {
  assert(::realm::num::fits(a_fixed, m.width()) &&
         (n == 0 || ::realm::num::fits(b0 + n - 1, m.width())));
  if (m.width() <= kNarrowMaxWidth) {
    range(Policy<std::uint32_t>{m}, a_fixed, b0, out, n);
  } else {
    range(Policy<std::uint64_t>{m}, a_fixed, b0, out, n);
  }
}

}  // namespace realm::mult::dp

/// Defines Class's three Multiplier entry points from its nested datapath
/// policy template `Class::Policy<U>`, constructed from the multiplier.
#define REALM_DATAPATH_ENTRY_POINTS(Class)                                              \
  std::uint64_t Class::multiply(std::uint64_t a, std::uint64_t b) const {              \
    assert(::realm::num::fits(a, width()) && ::realm::num::fits(b, width()));          \
    return ::realm::mult::dp::multiply(Policy<std::uint64_t>{*this}, a, b);            \
  }                                                                                     \
  void Class::multiply_batch(const std::uint64_t* a, const std::uint64_t* b,           \
                             std::uint64_t* out, std::size_t n) const {                \
    ::realm::mult::dp::batch_entry<Policy>(*this, a, b, out, n);                       \
  }                                                                                     \
  void Class::multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,              \
                                 std::uint64_t* out, std::size_t n) const {            \
    ::realm::mult::dp::range_entry<Policy>(*this, a_fixed, b0, out, n);                \
  }
