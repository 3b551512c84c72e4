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
// Every per-pair value lives in a fixed-size lane array, so with Lanes > 1
// each step is a straight-line loop over the lanes that vectorizes; with
// Lanes = 1 it is the scalar datapath.
template <std::size_t Lanes, bool Am1>
[[gnu::always_inline]] inline void am_reduce(const std::uint64_t* __restrict a,
                                             const std::uint64_t* __restrict b,
                                             std::uint64_t* __restrict out, int n,
                                             std::uint64_t recov_mask,
                                             std::uint64_t out_mask) {
  std::uint64_t rows[32][Lanes];  // rows [0, n) are written before any read
  for (int i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < Lanes; ++l) {
      rows[i][l] = (std::uint64_t{0} - ((b[l] >> i) & 1u)) & (a[l] << i);
    }
  }
  std::uint64_t acc[Lanes] = {};
  for (int size = n; size > 1; size = (size + 1) / 2) {
    const int pairs = size / 2;
    for (int k = 0; k < pairs; ++k) {
      for (std::size_t l = 0; l < Lanes; ++l) {
        const std::uint64_t x = rows[2 * k][l];
        const std::uint64_t y = rows[2 * k + 1][l];
        rows[k][l] = x ^ y;
        const std::uint64_t e = ((x & y) << 1) & recov_mask;
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
  for (std::size_t l = 0; l < Lanes; ++l) out[l] = (rows[0][l] + acc[l]) & out_mask;
}

constexpr std::size_t kBatchLanes = 8;

// Blocks of kBatchLanes pairs.  The a block advances by a_step per block:
// kBatchLanes for the batch kernel, 0 for the range kernel, whose a block
// holds the fixed operand in every lane.
template <bool Am1>
[[gnu::always_inline]] inline void am_batch_blocks(const std::uint64_t* __restrict a,
                                                   std::size_t a_step,
                                                   const std::uint64_t* __restrict b,
                                                   std::uint64_t* __restrict out,
                                                   std::size_t n, int width,
                                                   std::uint64_t recov_mask,
                                                   std::uint64_t out_mask) {
  const std::size_t main_n = n - n % kBatchLanes;
  std::size_t ai = 0;
  for (std::size_t i = 0; i < main_n; i += kBatchLanes, ai += a_step) {
    am_reduce<kBatchLanes, Am1>(a + ai, b + i, out + i, width, recov_mask, out_mask);
  }
  // Ragged tail: zero-padded to one full block (zero pairs are harmless).
  const std::size_t tail = n - main_n;
  if (tail == 0) return;
  std::uint64_t ta[kBatchLanes] = {}, tb[kBatchLanes] = {}, tp[kBatchLanes] = {};
  for (std::size_t l = 0; l < tail; ++l) {
    ta[l] = a[ai + l];
    tb[l] = b[main_n + l];
  }
  am_reduce<kBatchLanes, Am1>(ta, tb, tp, width, recov_mask, out_mask);
  for (std::size_t l = 0; l < tail; ++l) out[main_n + l] = tp[l];
}

// Lane-blocked batch and range kernel: the variant is chosen once per call,
// then every block of kBatchLanes pairs runs the same tree as multiply().
REALM_MULTIVERSION
void am_batch_kernel(const std::uint64_t* __restrict a, std::size_t a_step,
                     const std::uint64_t* __restrict b, std::uint64_t* __restrict out,
                     std::size_t n, int width, std::uint64_t recov_mask,
                     std::uint64_t out_mask, bool am1) {
  if (am1) {
    am_batch_blocks<true>(a, a_step, b, out, n, width, recov_mask, out_mask);
  } else {
    am_batch_blocks<false>(a, a_step, b, out, n, width, recov_mask, out_mask);
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
    am_reduce<1, true>(&a, &b, &p, n_, recov_mask_, num::mask(2 * n_));
  } else {
    am_reduce<1, false>(&a, &b, &p, n_, recov_mask_, num::mask(2 * n_));
  }
  return p;
}

void AmMultiplier::multiply_batch(const std::uint64_t* a, const std::uint64_t* b,
                                  std::uint64_t* out, std::size_t n) const {
  am_batch_kernel(a, kBatchLanes, b, out, n, n_, recov_mask_, num::mask(2 * n_),
                  variant_ == AmVariant::kAm1);
}

void AmMultiplier::multiply_row_range(std::uint64_t a_fixed, std::uint64_t b0,
                                      std::uint64_t* out, std::size_t n) const {
  assert(num::fits(a_fixed, n_) && (n == 0 || num::fits(b0 + n - 1, n_)));
  std::uint64_t a_block[kBatchLanes];
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
