#include "realm/jpeg/dct.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "realm/multiplier.hpp"
#include "realm/numeric/fixed_point.hpp"
#include "realm/numeric/simd.hpp"
#include "realm/obs/counters.hpp"

namespace realm::jpeg {
namespace {

// The Q12 matrix row-major: c[u][k] = lround(s(u)·cos((2k+1)uπ/16)·2^12)
// with s(0) = √(1/8) and s(u > 0) = √(2/8).  A literal, so that the panel
// passes derive their slot patterns at compile time;
// Dct.MatrixMatchesTheCosineFormula checks it against the formula.
constexpr std::array<std::int16_t, 64> kMatrix = {
    1448, 1448,  1448,  1448,  1448,  1448,  1448,  1448,   //
    2009, 1703,  1138,  400,   -400,  -1138, -1703, -2009,  //
    1892, 784,   -784,  -1892, -1892, -784,  784,   1892,   //
    1703, -400,  -2009, -1138, 1138,  2009,  400,   -1703,  //
    1448, -1448, -1448, 1448,  1448,  -1448, -1448, 1448,   //
    1138, -2009, 400,   1703,  -1703, -400,  2009,  -1138,  //
    784,  -1892, 1892,  -784,  -784,  1892,  -1892, 784,    //
    400,  -1138, 1703,  -2009, 2009,  -1703, 1138,  -400};

constexpr std::uint32_t magnitude_of(std::int16_t c) {
  return static_cast<std::uint32_t>(c < 0 ? -c : c);
}

// The distinct |c| of the Q12 matrix, ascending: the slots of a record.
constexpr std::array<std::uint32_t, DctProducts::kRows> kMagnitudes = [] {
  std::array<std::uint32_t, 64> m{};
  for (std::size_t i = 0; i < 64; ++i) m[i] = magnitude_of(kMatrix[i]);
  std::sort(m.begin(), m.end());
  const auto end = std::unique(m.begin(), m.end());
  if (end - m.begin() != DctProducts::kRows) {
    throw std::logic_error("DctProducts: the Q12 matrix must hold 7 distinct |c|");
  }
  std::array<std::uint32_t, DctProducts::kRows> out{};
  std::copy(m.begin(), end, out.begin());
  return out;
}();

// Round-to-nearest rescale by 2^-12, then clamp to the 16-bit datapath: the
// scalar pass's post-accumulation step.  The panel engine's rescale_store
// computes the same on eight 32-bit lanes.
inline std::int32_t rescale_sat(std::int64_t acc) {
  const std::int64_t rounded =
      (acc + (acc >= 0 ? (1 << (kDctCoeffBits - 1)) : -(1 << (kDctCoeffBits - 1)))) >>
      kDctCoeffBits;
  return num::sat_signed(rounded, 16);
}

// One 8-point transform pass: out[u] = Σ_k m[u][k] · in[k], products through
// the multiplier under test, accumulated in 64 bits and rescaled once — a
// fixed-point MAC datapath.  `transpose_m` applies mᵀ instead.
void pass(const std::array<std::int16_t, 64>& m, const std::int32_t in[8],
          std::int32_t out[8], bool transpose_m, const num::UMulFn& umul) {
  for (int u = 0; u < 8; ++u) {
    std::int64_t acc = 0;
    for (int k = 0; k < 8; ++k) {
      const std::int16_t coeff =
          m[static_cast<std::size_t>(transpose_m ? k * 8 + u : u * 8 + k)];
      acc += num::signed_mul(coeff, in[k], umul);
    }
    out[u] = rescale_sat(acc);
  }
}

void transform(const std::array<std::int16_t, 64>& in, std::array<std::int16_t, 64>& out,
               bool inverse, const num::UMulFn& umul) {
  const auto& c = dct_matrix_q12();
  std::int32_t tmp[64];
  // Column pass: tmp = M · in (M = C forward, Cᵀ inverse).
  for (int j = 0; j < 8; ++j) {
    std::int32_t col[8], res[8];
    for (int k = 0; k < 8; ++k) col[k] = in[static_cast<std::size_t>(k * 8 + j)];
    pass(c, col, res, inverse, umul);
    for (int u = 0; u < 8; ++u) tmp[u * 8 + j] = res[u];
  }
  // Row pass: out = tmp · Mᵀ.
  for (int i = 0; i < 8; ++i) {
    std::int32_t row[8], res[8];
    for (int k = 0; k < 8; ++k) row[k] = tmp[i * 8 + k];
    pass(c, row, res, inverse, umul);
    for (int v = 0; v < 8; ++v) {
      out[static_cast<std::size_t>(i * 8 + v)] = static_cast<std::int16_t>(res[v]);
    }
  }
}

// ---- panel engine -------------------------------------------------------
//
// The 2-D transform M·X·Mᵀ is one primitive applied twice: Y = M·A with the
// result stored *transposed*.  Feeding the first call's output back in gives
// (M·(M·X)ᵀ)ᵀ = M·X·Mᵀ in natural orientation.  Per (output u, tap k) the
// coefficient m(u, k) is fixed, and a product is a pure function of
// (|m(u, k)|, |x|), so tap k of column j reads the DctProducts record of
// |x| once and permutes it into the order of the outputs u: the same
// pattern for every block, fixed per (direction, k) at compile time.
//
// The eight outputs u of one (block, column j) are one 8-lane accumulator,
// which is exactly the transposed store out[b*64 + j*8 + u].  Lanes are
// wrapping uint32: with every entry at most DctProducts::kMaxEntry the true
// sum of 8 signed products lies in int32, so the wrapped sum is exact.

typedef std::uint32_t V32 __attribute__((vector_size(32)));
typedef std::int32_t S32 __attribute__((vector_size(32)));
typedef std::int16_t S16 __attribute__((vector_size(16)));

constexpr std::int16_t coeff(bool inverse, std::size_t k, std::size_t u) {
  return kMatrix[inverse ? k * 8 + u : u * 8 + k];
}

// The record slot of |m(u, k)|.
constexpr int slot(bool inverse, std::size_t k, std::size_t u) {
  const std::uint32_t mag = magnitude_of(coeff(inverse, k, u));
  int r = 0;
  while (kMagnitudes[static_cast<std::size_t>(r)] != mag) ++r;
  return r;
}

// All ones where m(u, k) < 0.
constexpr std::uint32_t sign_mask(bool inverse, std::size_t k, std::size_t u) {
  return coeff(inverse, k, u) < 0 ? ~0u : 0u;
}

// The eight signed products m(u, k) · x of tap k, in output order u, from
// the record of |x|; `neg` is all ones where x < 0.  (p ^ s) - s negates p
// where s is all ones: num::signed_mul's sign rule.  Every vector helper is
// inlined into the multiversioned transform, so no vector crosses a call.
template <bool Inverse, std::size_t K>
[[gnu::always_inline]] inline void signed_products(const std::uint32_t* record,
                                                   std::uint32_t neg, V32& out) {
  constexpr V32 csign = {sign_mask(Inverse, K, 0), sign_mask(Inverse, K, 1),
                         sign_mask(Inverse, K, 2), sign_mask(Inverse, K, 3),
                         sign_mask(Inverse, K, 4), sign_mask(Inverse, K, 5),
                         sign_mask(Inverse, K, 6), sign_mask(Inverse, K, 7)};
  const V32 rec = *reinterpret_cast<const V32*>(record);
  const V32 p = __builtin_shufflevector(
      rec, rec, slot(Inverse, K, 0), slot(Inverse, K, 1), slot(Inverse, K, 2),
      slot(Inverse, K, 3), slot(Inverse, K, 4), slot(Inverse, K, 5), slot(Inverse, K, 6),
      slot(Inverse, K, 7));
  const V32 s = csign ^ neg;
  out = (p ^ s) - s;
}

// Tap k of one block: acc[j] += (signed products of row[j]) - z, where z
// is the tap's signed products of x = 0.  A tap whose eight inputs are all
// zero would add exactly 0, so it is skipped.
template <bool Inverse, std::size_t K>
[[gnu::always_inline]] inline void add_tap(const std::int16_t* row,
                                           const DctProducts& products, const V32& z,
                                           V32* acc) {
  std::uint64_t halves[2];
  std::memcpy(halves, row, sizeof halves);
  if ((halves[0] | halves[1]) == 0) return;
  for (std::size_t j = 0; j < 8; ++j) {
    const std::int32_t x = row[j];
    V32 p;
    signed_products<Inverse, K>(products.record(static_cast<std::size_t>(x < 0 ? -x : x)),
                                x < 0 ? ~0u : 0u, p);
    acc[j] += p - z;
  }
}

// rescale_sat on eight lanes without leaving 32 bits.  With q = a >> 12
// (floor) and r = a mod 2^12, round-half-away-from-zero of a / 2^12 is
// q + (r >= 2^11) for a >= 0 and q - (r < 2^11) for a < 0, i.e.
// q + bit 11 of a + (a >> 31); |q| < 2^19, so nothing wraps.
[[gnu::always_inline]] inline void rescale_store(const V32& acc, std::int16_t* out) {
  const S32 a = reinterpret_cast<S32>(acc);
  S32 r = (a >> kDctCoeffBits) + ((a >> (kDctCoeffBits - 1)) & 1) + (a >> 31);
  const S32 hi = S32{} + 32767;
  const S32 lo = S32{} - 32768;
  r = r > hi ? hi : r;
  r = r < lo ? lo : r;
  const S16 v = __builtin_convertvector(r, S16);
  std::memcpy(out, &v, sizeof v);
}

// One pass over `n_blocks` blocks: out[b][j*8+u] =
// rescale_sat(Σ_k m(u,k) · in[b][k*8+j]), with the products of the table.
// Each accumulator starts at z_sum, the sum of every tap's products of
// x = 0, and each tap that runs adds its products minus its z[k], so a
// skipped tap contributes exactly what its all-zero inputs would: the sums
// are those of the scalar pass for any design, multiply(c, 0) != 0
// included.
template <bool Inverse, std::size_t... K>
[[gnu::always_inline]] inline void pass_block(const std::int16_t* __restrict in,
                                              std::int16_t* __restrict out,
                                              const DctProducts& products, const V32* z,
                                              const V32& z_sum, std::index_sequence<K...>) {
  V32 acc[8];
  for (V32& a : acc) a = z_sum;
  (add_tap<Inverse, K>(in + K * 8, products, z[K], acc), ...);
  for (std::size_t j = 0; j < 8; ++j) rescale_store(acc[j], out + j * 8);
}

template <bool Inverse, std::size_t... K>
[[gnu::always_inline]] inline void transform_blocks(const std::int16_t* in,
                                                    std::int16_t* out, std::size_t n_blocks,
                                                    const DctProducts& products,
                                                    std::index_sequence<K...> taps) {
  V32 z[8];
  (signed_products<Inverse, K>(products.record(0), 0u, z[K]), ...);
  const V32 z_sum = (z[K] + ...);
  std::int16_t mid[64];
  for (std::size_t b = 0; b < n_blocks; ++b) {
    pass_block<Inverse>(in + b * 64, mid, products, z, z_sum, taps);
    pass_block<Inverse>(mid, out + b * 64, products, z, z_sum, taps);
  }
}

REALM_MULTIVERSION
void transform_panel(const std::int16_t* in, std::int16_t* out, std::size_t n_blocks,
                     bool inverse, const DctProducts& products) {
  if (inverse) {
    transform_blocks<true>(in, out, n_blocks, products, std::make_index_sequence<8>{});
  } else {
    transform_blocks<false>(in, out, n_blocks, products, std::make_index_sequence<8>{});
  }
  obs::counter_add(obs::Counter::kDctBlocksBatched, n_blocks);
}

// ---- table build ---------------------------------------------------------

// Magnitudes per tile of the table build: 7 rows of 512 products are 28 KB.
constexpr std::size_t kTableTile = 512;

typedef std::uint64_t W64 __attribute__((vector_size(64)));

// Writes the records of n magnitudes from their 7 row-range products,
// slot 7 = 0, and returns the OR of every product: above
// DctProducts::kMaxEntry iff one product is.  Eight magnitudes at a time:
// rows 2k and 2k+1 pack into one qword per magnitude (row 2k in the low
// half), and two rounds of two-source qword shuffles transpose the four
// packed rows into records.  A product of 2^32 or more corrupts its
// neighbour's half, but it also makes the constructor throw.
REALM_MULTIVERSION
std::uint64_t interleave(const std::uint64_t (*rows)[kTableTile],
                         DctProducts::Record* out, std::size_t n) {
  W64 any_v{};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    W64 r[DctProducts::kRows];
    for (std::size_t k = 0; k < DctProducts::kRows; ++k) {
      std::memcpy(&r[k], rows[k] + i, sizeof r[k]);
      any_v |= r[k];
    }
    const W64 packed[4] = {r[0] | (r[1] << 32), r[2] | (r[3] << 32), r[4] | (r[5] << 32),
                           r[6]};
    // Per magnitude, rows 0-3 (lo) and rows 4-7 (hi) of magnitudes i..i+3
    // and i+4..i+7; then each record joins its two halves.
    const W64 lo[2] = {
        __builtin_shufflevector(packed[0], packed[1], 0, 8, 1, 9, 2, 10, 3, 11),
        __builtin_shufflevector(packed[0], packed[1], 4, 12, 5, 13, 6, 14, 7, 15)};
    const W64 hi[2] = {
        __builtin_shufflevector(packed[2], packed[3], 0, 8, 1, 9, 2, 10, 3, 11),
        __builtin_shufflevector(packed[2], packed[3], 4, 12, 5, 13, 6, 14, 7, 15)};
    for (std::size_t h = 0; h < 2; ++h) {
      const W64 first = __builtin_shufflevector(lo[h], hi[h], 0, 1, 8, 9, 2, 3, 10, 11);
      const W64 second = __builtin_shufflevector(lo[h], hi[h], 4, 5, 12, 13, 6, 7, 14, 15);
      std::memcpy(out + i + 4 * h, &first, sizeof first);
      std::memcpy(out + i + 4 * h + 2, &second, sizeof second);
    }
  }
  std::uint64_t any = 0;
  for (std::size_t l = 0; l < 8; ++l) any |= any_v[l];
  for (; i < n; ++i) {
    for (std::size_t k = 0; k < DctProducts::kRows; ++k) {
      any |= rows[k][i];
      out[i].slot[k] = static_cast<std::uint32_t>(rows[k][i]);
    }
    out[i].slot[DctProducts::kRows] = 0;
  }
  return any;
}

}  // namespace

const std::array<std::int16_t, 64>& dct_matrix_q12() { return kMatrix; }

void fdct8x8(const std::array<std::int16_t, 64>& block, std::array<std::int16_t, 64>& out,
             const num::UMulFn& umul) {
  transform(block, out, /*inverse=*/false, umul);
}

void idct8x8(const std::array<std::int16_t, 64>& coeffs,
             std::array<std::int16_t, 64>& out, const num::UMulFn& umul) {
  transform(coeffs, out, /*inverse=*/true, umul);
}

DctProducts::DctProducts(const Multiplier& mul, std::size_t input_bound) : mul_{&mul} {
  if (mul.width() < 16) {
    throw std::invalid_argument(
        "DctProducts: the 16-bit DCT datapath needs a multiplier of width >= 16");
  }
  cover(input_bound);
}

void DctProducts::cover(std::size_t input_bound) {
  const std::size_t b1 = std::min(input_bound, kMaxMagnitude);
  fill_to(b1);
  // Slot 7 is 0, so the scan may take all eight slots of a record.
  std::uint32_t peak = 0;
  for (std::size_t x = 0; x <= b1; ++x) {
    for (const std::uint32_t p : records_[x].slot) peak = std::max(peak, p);
  }
  const std::size_t b2 = std::min(
      kMaxMagnitude,
      static_cast<std::size_t>(((8 * std::uint64_t{peak} + (1u << (kDctCoeffBits - 1))) >>
                                kDctCoeffBits) +
                               1));
  fill_to(std::max(b1, b2));
}

void DctProducts::fill_to(std::size_t last) {
  const std::size_t first = records_.size();
  if (last < first) return;
  // The 7 row ranges of a tile of magnitudes land in an L1-resident buffer
  // and are interleaved into the tile's records from there.
  records_.resize(last + 1);
  alignas(64) std::uint64_t rows[kRows][kTableTile];
  std::uint64_t any = 0;
  for (std::size_t x0 = first; x0 <= last; x0 += kTableTile) {
    const std::size_t n = std::min(kTableTile, last + 1 - x0);
    for (std::size_t r = 0; r < kRows; ++r) {
      mul_->multiply_row_range(kMagnitudes[r], x0, rows[r], n);
    }
    any |= interleave(rows, records_.data() + x0, n);
  }
  if (any > kMaxEntry) {
    records_.resize(first);
    throw std::invalid_argument(
        "DctProducts: a product exceeds 2^28 - 1, so 8 of them may not sum in 32 bits");
  }
}

std::uint64_t DctProducts::magnitude(std::size_t r) { return kMagnitudes.at(r); }

void fdct_panel(const std::int16_t* blocks, std::int16_t* out, std::size_t n_blocks,
                const DctProducts& products) {
  transform_panel(blocks, out, n_blocks, /*inverse=*/false, products);
}

void idct_panel(const std::int16_t* coeffs, std::int16_t* out, std::size_t n_blocks,
                const DctProducts& products) {
  transform_panel(coeffs, out, n_blocks, /*inverse=*/true, products);
}

}  // namespace realm::jpeg
