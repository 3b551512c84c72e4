#include "realm/multipliers/am.hpp"

#include <cassert>
#include <stdexcept>

#include "realm/numeric/bits.hpp"
#include "realm/numeric/simd.hpp"

namespace realm::mult {
namespace {

// The one definition of the AM datapath, over Lanes independent operand
// pairs at once.  Partial-product rows sit at fixed positions — zero rows
// participate in the pairing exactly as in the RTL's fixed reduction tree —
// and each level pairs rows (2k, 2k+1) in place into row k, carrying an odd
// last row to the end of the next level.
//
// Approximate reduction: each adder emits a carry-free sum x^y plus an error
// vector (x&y)<<1 — the dropped carries at their true weight.  The error
// network differs between the variants:
//   AM1 accumulates the masked error vectors with exact adders,
//   AM2 merges them with OR gates (cheaper, loses coincident carries).
// Recovery is restricted to the nb most-significant product columns
// (recov_mask).  The masked error vectors are a subset of the dropped
// carries, so the recovered sum never exceeds the exact product, and a zero
// operand yields all-zero rows and a zero product without a special case.
//
// Every per-pair value lives in a fixed-size array of Lanes lanes of type U,
// so with Lanes > 1 each step is a straight-line loop over the lanes that
// vectorizes; with Lanes = 1 it is the scalar datapath.  U is 64-bit except
// in the 16-bit instance below.
template <class U, std::size_t Lanes, bool Am1>
[[gnu::always_inline]] inline void am_reduce(const std::uint64_t* __restrict a,
                                             const std::uint64_t* __restrict b,
                                             std::uint64_t* __restrict out, int n,
                                             std::uint64_t recov_mask,
                                             std::uint64_t out_mask) {
  U rows[32][Lanes];  // rows [0, n) are written before any read
  for (int i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < Lanes; ++l) {
      rows[i][l] = (U{0} - static_cast<U>((b[l] >> i) & 1u)) & static_cast<U>(a[l] << i);
    }
  }
  const auto recov = static_cast<U>(recov_mask);
  U acc[Lanes] = {};
  for (int size = n; size > 1; size = (size + 1) / 2) {
    const int pairs = size / 2;
    for (int k = 0; k < pairs; ++k) {
      for (std::size_t l = 0; l < Lanes; ++l) {
        const U x = rows[2 * k][l];
        const U y = rows[2 * k + 1][l];
        rows[k][l] = x ^ y;
        const U e = static_cast<U>((x & y) << 1) & recov;
        if constexpr (Am1) {
          acc[l] += e;
        } else {
          acc[l] |= e;
        }
      }
    }
    if (size % 2 != 0) {
      for (std::size_t l = 0; l < Lanes; ++l) rows[pairs][l] = rows[size - 1][l];
    }
  }
  for (std::size_t l = 0; l < Lanes; ++l) {
    out[l] = static_cast<std::uint64_t>(rows[0][l] + acc[l]) & out_mask;
  }
}

// The 16-bit instance: the width a compile-time constant, so the tree's
// shape folds, and 32-bit lanes, 16 pairs per 512-bit vector and one
// register per row.  It is exact: every row is below 2^31, so no error
// vector loses a bit, and at N = 16 out_mask is 2^32 - 1, so wrapping acc
// mod 2^32 before the final mask changes nothing.
constexpr std::size_t kLanes16 = 16;
// Every other width, and what the 16-bit instance leaves over.
constexpr std::size_t kLanes = 8;

// The whole blocks of Lanes pairs at the front of [0, n); returns how many
// pairs they cover.  a_stride is 1 for the batch kernel and 0 for the range
// kernel, whose a operand is the fixed one, repeated over a block.
template <class U, std::size_t Lanes, bool Am1>
[[gnu::always_inline]] inline std::size_t am_blocks(const std::uint64_t* __restrict a,
                                                    std::size_t a_stride,
                                                    const std::uint64_t* __restrict b,
                                                    std::uint64_t* __restrict out,
                                                    std::size_t n, int width,
                                                    std::uint64_t recov_mask,
                                                    std::uint64_t out_mask) {
  const std::size_t main_n = n - n % Lanes;
  for (std::size_t i = 0; i < main_n; i += Lanes) {
    am_reduce<U, Lanes, Am1>(a + i * a_stride, b + i, out + i, width, recov_mask, out_mask);
  }
  return main_n;
}

template <bool Am1>
[[gnu::always_inline]] inline void am_batch_blocks(const std::uint64_t* __restrict a,
                                                   std::size_t a_stride,
                                                   const std::uint64_t* __restrict b,
                                                   std::uint64_t* __restrict out,
                                                   std::size_t n, int width,
                                                   std::uint64_t recov_mask,
                                                   std::uint64_t out_mask) {
  std::size_t done = 0;
  if (width == 16) {
    done = am_blocks<std::uint32_t, kLanes16, Am1>(a, a_stride, b, out, n, 16, recov_mask,
                                                   out_mask);
  }
  done += am_blocks<std::uint64_t, kLanes, Am1>(a + done * a_stride, a_stride, b + done,
                                                out + done, n - done, width, recov_mask,
                                                out_mask);
  // Ragged tail: zero-padded to one full block (zero pairs are harmless).
  const std::size_t tail = n - done;
  if (tail == 0) return;
  std::uint64_t ta[kLanes] = {}, tb[kLanes] = {}, tp[kLanes] = {};
  for (std::size_t l = 0; l < tail; ++l) {
    ta[l] = a[(done + l) * a_stride];
    tb[l] = b[done + l];
  }
  am_reduce<std::uint64_t, kLanes, Am1>(ta, tb, tp, width, recov_mask, out_mask);
  for (std::size_t l = 0; l < tail; ++l) out[done + l] = tp[l];
}

// Lane-blocked batch and range kernel: the variant is chosen once per call,
// then every block runs the same tree as multiply().
REALM_MULTIVERSION
void am_batch_kernel(const std::uint64_t* __restrict a, std::size_t a_stride,
                     const std::uint64_t* __restrict b, std::uint64_t* __restrict out,
                     std::size_t n, int width, std::uint64_t recov_mask,
                     std::uint64_t out_mask, bool am1) {
  if (am1) {
    am_batch_blocks<true>(a, a_stride, b, out, n, width, recov_mask, out_mask);
  } else {
    am_batch_blocks<false>(a, a_stride, b, out, n, width, recov_mask, out_mask);
  }
}

}  // namespace

AmMultiplier::AmMultiplier(int n, int nb, AmVariant variant)
    : n_{n}, nb_{nb}, variant_{variant} {
  if (n < 2 || n > 31) throw std::invalid_argument("AmMultiplier: N in [2, 31]");
  if (nb < 0 || nb > 2 * n) throw std::invalid_argument("AmMultiplier: nb in [0, 2N]");
  recov_mask_ = num::mask(2 * n) & ~num::mask(2 * n - nb);
}

std::uint64_t AmMultiplier::multiply(std::uint64_t a, std::uint64_t b) const {
  assert(num::fits(a, n_) && num::fits(b, n_));
  if (a == 0 || b == 0) return 0;
  std::uint64_t p = 0;
  if (variant_ == AmVariant::kAm1) {
    am_reduce<std::uint64_t, 1, true>(&a, &b, &p, n_, recov_mask_, num::mask(2 * n_));
  } else {
    am_reduce<std::uint64_t, 1, false>(&a, &b, &p, n_, recov_mask_, num::mask(2 * n_));
  }
  return p;
}

void AmMultiplier::multiply_batch(const std::uint64_t* a, const std::uint64_t* b,
                                  std::uint64_t* out, std::size_t n) const {
  am_batch_kernel(a, 1, b, out, n, n_, recov_mask_, num::mask(2 * n_),
                  variant_ == AmVariant::kAm1);
}

void AmMultiplier::multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,
                                      std::uint64_t* out, std::size_t n) const {
  assert(num::fits(a_fixed, n_) && (n == 0 || num::fits(b0 + n - 1, n_)));
  std::uint64_t a_block[kLanes16];
  for (auto& v : a_block) v = a_fixed;
  constexpr std::size_t kChunk = 1024;
  std::uint64_t b_iota[kChunk];
  for (std::size_t i0 = 0; i0 < n; i0 += kChunk) {
    const std::size_t len = n - i0 < kChunk ? n - i0 : kChunk;
    for (std::size_t i = 0; i < len; ++i) b_iota[i] = b0 + i0 + i;
    am_batch_kernel(a_block, 0, b_iota, out + i0, len, n_, recov_mask_, num::mask(2 * n_),
                    variant_ == AmVariant::kAm1);
  }
}

std::string AmMultiplier::name() const {
  return std::string{variant_ == AmVariant::kAm1 ? "AM1" : "AM2"} +
         " (nb=" + std::to_string(nb_) + ")";
}

}  // namespace realm::mult
