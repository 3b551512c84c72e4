#include "realm/jpeg/dct.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "realm/multiplier.hpp"
#include "realm/numeric/fixed_point.hpp"
#include "realm/numeric/simd.hpp"
#include "realm/obs/counters.hpp"

namespace realm::jpeg {
namespace {

std::array<std::int16_t, 64> make_matrix() {
  std::array<std::int16_t, 64> c{};
  const double pi = std::acos(-1.0);
  for (int u = 0; u < 8; ++u) {
    const double s = (u == 0) ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
    for (int k = 0; k < 8; ++k) {
      const double v = s * std::cos((2 * k + 1) * u * pi / 16.0);
      c[static_cast<std::size_t>(u * 8 + k)] =
          static_cast<std::int16_t>(std::lround(v * (1 << kDctCoeffBits)));
    }
  }
  return c;
}

// Round-to-nearest rescale by 2^-12, then clamp to the 16-bit datapath —
// the single post-accumulation step both engines share verbatim.
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
// (M·(M·X)ᵀ)ᵀ = M·X·Mᵀ in natural orientation.  Per (output row u, tap k)
// the coefficient is fixed across every block and every intra-block column.
// Within one tap the eight outputs share few coefficient *magnitudes* — the
// Q12 matrix holds only 7 distinct ones — and a product is a pure function
// of (|c|, |x|), so the pass looks up each distinct |c|'s products once per
// tap in the design's DctProducts table and re-applies each output's sign
// while accumulating.

constexpr std::size_t kPanelBlocks = 32;  // blocks per panel: lanes stay L1-resident
constexpr std::size_t kLane = kPanelBlocks * 8;

// The distinct |c| of the Q12 matrix, ascending: the rows of DctProducts.
const std::array<std::uint64_t, DctProducts::kRows>& magnitudes() {
  static const std::array<std::uint64_t, DctProducts::kRows> mags = [] {
    std::vector<std::uint64_t> m;
    for (const std::int16_t c : dct_matrix_q12()) {
      m.push_back(static_cast<std::uint64_t>(c < 0 ? -c : c));
    }
    std::sort(m.begin(), m.end());
    m.erase(std::unique(m.begin(), m.end()), m.end());
    if (m.size() != DctProducts::kRows) {
      throw std::logic_error("DctProducts: the Q12 matrix must hold 7 distinct |c|");
    }
    std::array<std::uint64_t, DctProducts::kRows> out{};
    std::copy(m.begin(), m.end(), out.begin());
    return out;
  }();
  return mags;
}

// Reuse plan of one tap k: the table rows of the distinct |m(u, k)| over the
// eight outputs u, and per output the slot of its magnitude and the sign
// mask (-1 where m(u, k) < 0) that restores its coefficient.
struct TapPlan {
  std::size_t n_mags = 0;
  std::size_t row[8] = {};
  std::uint8_t slot[8] = {};
  std::int64_t sign[8] = {};
};
using PassPlan = std::array<TapPlan, 8>;

PassPlan make_plan(bool transpose_m) {
  const auto& c = dct_matrix_q12();
  const auto& mags = magnitudes();
  PassPlan plan{};
  for (std::size_t k = 0; k < 8; ++k) {
    TapPlan& t = plan[k];
    for (std::size_t u = 0; u < 8; ++u) {
      const std::int64_t coeff = c[transpose_m ? k * 8 + u : u * 8 + k];
      const auto mag = static_cast<std::uint64_t>(coeff < 0 ? -coeff : coeff);
      const auto r = static_cast<std::size_t>(
          std::find(mags.begin(), mags.end(), mag) - mags.begin());
      std::size_t d = 0;
      while (d < t.n_mags && t.row[d] != r) ++d;
      if (d == t.n_mags) t.row[t.n_mags++] = r;
      t.slot[u] = static_cast<std::uint8_t>(d);
      t.sign[u] = coeff < 0 ? -1 : 0;
    }
  }
  return plan;
}

const PassPlan& pass_plan(bool transpose_m) {
  static const PassPlan forward = make_plan(false);
  static const PassPlan inverse = make_plan(true);
  return transpose_m ? inverse : forward;
}

// One pass over `nb <= kPanelBlocks` blocks: out[b][j*8+u] =
// rescale_sat(Σ_k m(u,k) · in[b][k*8+j]).
//
// Tap by tap: lane k is split once into sign/magnitude form, the plan's
// distinct magnitudes' products are read from the table into prod[d], and
// each output u adds its slot's products with the sign num::signed_mul
// would give them — identical products, identical signs, exact int64 sums,
// so the result is bit-identical to the scalar pass.  The working set
// (prod, acc, one split lane) is about 36 KB; the loops are compiled per
// ISA.
REALM_MULTIVERSION
void pass_panel(const std::int16_t* __restrict in, std::int16_t* __restrict out,
                std::size_t nb, const PassPlan& plan, const DctProducts& products) {
  const std::size_t lane_len = nb * 8;
  std::uint64_t mag[kLane];      // |in| of lane k, the table column
  std::int64_t neg[kLane];       // sign mask of lane k: -1 where in < 0, else 0
  std::uint64_t prod[8][kLane];  // products per distinct |c| of tap k
  std::int64_t acc[8][kLane];    // per output u
  for (std::size_t u = 0; u < 8; ++u) {
    for (std::size_t i = 0; i < lane_len; ++i) acc[u][i] = 0;
  }
  for (std::size_t k = 0; k < 8; ++k) {
    for (std::size_t b = 0; b < nb; ++b) {
      const std::int16_t* row = in + b * 64 + k * 8;
      for (std::size_t j = 0; j < 8; ++j) {
        const std::int64_t v = row[j];
        mag[b * 8 + j] = static_cast<std::uint64_t>(v < 0 ? -v : v);
        neg[b * 8 + j] = v < 0 ? -1 : 0;
      }
    }
    const TapPlan& t = plan[k];
    for (std::size_t d = 0; d < t.n_mags; ++d) {
      const std::uint64_t* r = products.row(t.row[d]);
      std::uint64_t* p = prod[d];
      for (std::size_t i = 0; i < lane_len; ++i) p[i] = r[mag[i]];
    }
    for (std::size_t u = 0; u < 8; ++u) {
      const std::uint64_t* p = prod[t.slot[u]];
      const std::int64_t amask = t.sign[u];
      std::int64_t* a = acc[u];
      for (std::size_t i = 0; i < lane_len; ++i) {
        // (p ^ m) - m negates p where m == -1 — signed_mul's sign rule.
        const std::int64_t m = neg[i] ^ amask;
        a[i] += (static_cast<std::int64_t>(p[i]) ^ m) - m;
      }
    }
  }
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::size_t j = 0; j < 8; ++j) {
      for (std::size_t u = 0; u < 8; ++u) {
        out[b * 64 + j * 8 + u] =
            static_cast<std::int16_t>(rescale_sat(acc[u][b * 8 + j]));
      }
    }
  }
}

void transform_panel(const std::int16_t* in, std::int16_t* out, std::size_t n_blocks,
                     bool inverse, const DctProducts& products) {
  const PassPlan& plan = pass_plan(inverse);
  std::int16_t mid[kPanelBlocks * 64];
  for (std::size_t b0 = 0; b0 < n_blocks; b0 += kPanelBlocks) {
    const std::size_t nb =
        n_blocks - b0 < kPanelBlocks ? n_blocks - b0 : kPanelBlocks;
    pass_panel(in + b0 * 64, mid, nb, plan, products);
    pass_panel(mid, out + b0 * 64, nb, plan, products);
  }
  obs::counter_add(obs::Counter::kDctBlocksBatched, n_blocks);
}

}  // namespace

const std::array<std::int16_t, 64>& dct_matrix_q12() {
  static const std::array<std::int16_t, 64> c = make_matrix();
  return c;
}

void fdct8x8(const std::array<std::int16_t, 64>& block, std::array<std::int16_t, 64>& out,
             const num::UMulFn& umul) {
  transform(block, out, /*inverse=*/false, umul);
}

void idct8x8(const std::array<std::int16_t, 64>& coeffs,
             std::array<std::int16_t, 64>& out, const num::UMulFn& umul) {
  transform(coeffs, out, /*inverse=*/true, umul);
}

DctProducts::DctProducts(const Multiplier& mul) {
  if (mul.width() < 16) {
    throw std::invalid_argument(
        "DctProducts: the 16-bit DCT datapath needs a multiplier of width >= 16");
  }
  // Every entry is written by the row kernels, so the storage is not zeroed.
  products_ = std::make_unique_for_overwrite<std::uint64_t[]>(kRows * kColumns);
  for (std::size_t r = 0; r < kRows; ++r) {
    mul.multiply_row_range(magnitude(r), 0, products_.get() + r * kColumns, kColumns);
  }
}

std::uint64_t DctProducts::magnitude(std::size_t r) { return magnitudes()[r]; }

void fdct_panel(const std::int16_t* blocks, std::int16_t* out, std::size_t n_blocks,
                const DctProducts& products) {
  transform_panel(blocks, out, n_blocks, /*inverse=*/false, products);
}

void idct_panel(const std::int16_t* coeffs, std::int16_t* out, std::size_t n_blocks,
                const DctProducts& products) {
  transform_panel(coeffs, out, n_blocks, /*inverse=*/true, products);
}

}  // namespace realm::jpeg
