#include "realm/error/monte_carlo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "realm/numeric/bits.hpp"
#include "realm/numeric/rng.hpp"
#include "realm/numeric/simd.hpp"
#include "realm/numeric/thread_pool.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/trace.hpp"
#include "row_quotient.hpp"

namespace realm::err {
namespace {

// Per-thread scratch: operand, product and error blocks.  thread_local so the
// persistent pool workers allocate once and reuse across shards and calls.
struct Scratch {
  std::vector<std::uint64_t> a, b, p;
  std::vector<double> e;
  Scratch() : a(kBatchPairs), b(kBatchPairs), p(kBatchPairs), e(kBatchPairs) {}
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

// Raw moments of one operand block.  The engine reduces each block to these
// five numbers with lane-parallel loops (no per-sample division for the
// variance) and folds blocks into an ErrorAccumulator through the
// numerically stable merge().
struct BlockStats {
  double sum = 0.0;      // Σ e
  double sumsq = 0.0;    // Σ e²
  double abs_sum = 0.0;  // Σ |e|
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  std::uint64_t n = 0;   // pairs with a defined relative error
};

// Fills an operand block from the shard's splitmix64 stream in counter form:
// pair i uses draws 2i and 2i+1, each mapped to `width` bits by taking the
// top bits (draws are uniform over 2^64, so the top-bit map is exactly
// uniform over [0, 2^width)).  Draw j mixes seed + (j+1)·gamma
// (num::splitmix64_at); the loop carries that state as an induction
// variable, gamma per draw and 2·gamma per pair, so no draw pays a 64-bit
// multiply for its counter and the loop still vectorizes.
REALM_MULTIVERSION
void generate_block(std::uint64_t seed, std::uint64_t first_pair, int shift,
                    std::uint64_t* __restrict a, std::uint64_t* __restrict b,
                    std::size_t n) {
  constexpr std::uint64_t kGamma = num::kSplitmix64Gamma;
  std::uint64_t z = seed + (2 * first_pair + 1) * kGamma;
  for (std::size_t i = 0; i < n; ++i, z += 2 * kGamma) {
    a[i] = num::splitmix64_mix(z) >> shift;
    b[i] = num::splitmix64_mix(z + kGamma) >> shift;
  }
}

// Fixed 8-lane vectors for the reduction, written with GCC vector extensions
// rather than left to the auto-vectorizer: every lane op is an IEEE
// elementwise op, so each target_clones ISA lowers the *same* arithmetic
// (zmm on AVX-512, 2×ymm on AVX2, SSE2 pairs on the default clone) and the
// result is bit-identical across clones, not just across thread counts.
// aligned(8): Scratch vectors only guarantee element alignment, so loads and
// stores must be emitted unaligned.
typedef double Vd __attribute__((vector_size(64), aligned(8)));
typedef std::uint64_t Vu __attribute__((vector_size(64), aligned(8)));
constexpr std::size_t kLanes = sizeof(Vd) / sizeof(double);

// Operand sources of reduce_block.  Both hand the reduction the same doubles
// for the same pair — the broadcast of a fixed row and the column iota convert
// to exactly what materialized buffers holding them would load — so the
// tiled exhaustive engine is bit-identical to the generic batched reference,
// and the row source simply never stores or re-loads its operands.  Vector
// operands come back through out-parameters: a 64-byte Vd return value would
// change the ABI between ISA clones (-Wpsabi).
struct BufferOperands {  // pair i is (a[i], b[i])
  const std::uint64_t* a;
  const std::uint64_t* b;
  [[gnu::always_inline]] void load(std::size_t i, Vd& ad, Vd& bd) const {
    ad = __builtin_convertvector(*reinterpret_cast<const Vu*>(a + i), Vd);
    bd = __builtin_convertvector(*reinterpret_cast<const Vu*>(b + i), Vd);
  }
  [[nodiscard]] std::uint64_t a_at(std::size_t i) const { return a[i]; }
  [[nodiscard]] std::uint64_t b_at(std::size_t i) const { return b[i]; }
};

struct RowOperands {  // pair i is (a, b0 + i)
  std::uint64_t a;
  std::uint64_t b0;
  [[gnu::always_inline]] void load(std::size_t i, Vd& ad, Vd& bd) const {
    const Vu iota = {0, 1, 2, 3, 4, 5, 6, 7};
    ad = Vd{} + static_cast<double>(a);
    bd = __builtin_convertvector((Vu{} + (b0 + i)) + iota, Vd);
  }
  [[nodiscard]] std::uint64_t a_at(std::size_t) const { return a; }
  [[nodiscard]] std::uint64_t b_at(std::size_t i) const { return b0 + i; }
};

// The lane accumulators of every reduction loop and the one accumulate step
// they share.  GCC contracts `sumsq += ev * ev` into an FMA in the clones
// that have one; a loop that spelled the step its own way could be
// contracted differently and move the variance by an ulp, so no loop does.
struct Lanes {
  Vd sum{}, sumsq{}, abs{}, cnt{};
  Vd mn = Vd{} + std::numeric_limits<double>::infinity();
  Vd mx = Vd{} - std::numeric_limits<double>::infinity();

  // cmin and cmax are ev with the lanes of skipped pairs set to +inf / -inf.
  [[gnu::always_inline]] void add(const Vd& ev, const Vd& cmin, const Vd& cmax) {
    sum += ev;
    sumsq += ev * ev;
    abs += reinterpret_cast<Vd>(reinterpret_cast<Vu>(ev) & 0x7fffffffffffffffULL);
    mn = mn < cmin ? mn : cmin;
    mx = mx > cmax ? mx : cmax;
  }

  // Folds the lanes in fixed order.  The pair count comes back in `count`,
  // a double until the scalar tail has added its pairs.
  [[gnu::always_inline]] BlockStats fold(double& count) const {
    BlockStats s;
    count = 0.0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      s.sum += sum[l];
      s.sumsq += sumsq[l];
      s.abs_sum += abs[l];
      s.min = std::min(s.min, mn[l]);
      s.max = std::max(s.max, mx[l]);
      count += cnt[l];
    }
    return s;
  }
};

// One vector of the general loop.  Zero pairs are skipped exactly as in the
// scalar reference: the max() divisor keeps the (unconditional) division
// safe, and the mask blend forces e to exactly 0 so the pair drops out of
// the sums even for a design whose product is nonzero for a zero operand
// (the Multiplier interface allows one; no library design is one); min/max
// and the count blend the pair away.  All comparisons are on doubles —
// integer vector compares lower to scalar extract sequences on GCC 12, FP
// compares to vcmppd + blends.  A
// pair is valid iff exact > 0 (operands are < 2^31, so the product converts
// without losing the zero/nonzero distinction).
template <bool kStoreErrors>
[[gnu::always_inline]] inline void blended_step(const Vd& ad, const Vd& bd,
                                                const std::uint64_t* p, double* e,
                                                std::size_t i, Lanes& acc) {
  const Vd vzero = Vd{};
  const Vd vone = vzero + 1.0;
  const Vd vinf = vzero + std::numeric_limits<double>::infinity();
  const Vd pd = __builtin_convertvector(*reinterpret_cast<const Vu*>(p + i), Vd);
  const Vd exact = ad * bd;
  const Vd divisor = exact > vone ? exact : vone;  // 1.0 only for zero pairs
  const Vd eraw = (pd - exact) / divisor;
  const Vd validm = exact > vzero ? vone : vzero;
  const Vd ev = eraw * validm;  // exact 0 for zero pairs (eraw is finite)
  if constexpr (kStoreErrors) *reinterpret_cast<Vd*>(e + i) = ev;
  acc.add(ev, exact > vzero ? ev : vinf, exact > vzero ? ev : -vinf);
  acc.cnt += validm;
}

// Pairs [from, n) of a block, one at a time, after the vector loop: the
// same IEEE operations as a vector lane.
template <bool kStoreErrors, class Operands>
[[gnu::always_inline]] inline void reduce_tail(const Operands& ops,
                                               const std::uint64_t* p, double* e,
                                               std::size_t from, std::size_t n,
                                               BlockStats& s, double& count) {
  for (std::size_t i = from; i < n; ++i) {
    const double exact =
        static_cast<double>(ops.a_at(i)) * static_cast<double>(ops.b_at(i));
    const double eraw = (static_cast<double>(p[i]) - exact) / std::max(exact, 1.0);
    const double ev = exact > 0.0 ? eraw : 0.0;
    if constexpr (kStoreErrors) e[i] = ev;
    s.sum += ev;
    s.sumsq += ev * ev;
    s.abs_sum += std::fabs(ev);
    if (exact > 0.0) {
      s.min = std::min(s.min, ev);
      s.max = std::max(s.max, ev);
      count += 1.0;
    }
  }
}

// Reduces a block of products to BlockStats.  With kStoreErrors it also
// writes the per-pair relative errors to e[] (0 for skipped zero pairs) for
// the histogram pass and the peak search; without, e is never touched.
// Every pair may be a zero pair, so every vector is blended.  Lanes fold in
// fixed order and the tail runs the same formulas in scalar, so the result
// is deterministic.
template <bool kStoreErrors, class Operands>
REALM_MULTIVERSION BlockStats reduce_block(const Operands ops,
                                           const std::uint64_t* __restrict p,
                                           double* __restrict e, std::size_t n) {
  Lanes acc;
  const std::size_t main_n = n - n % kLanes;
  for (std::size_t i = 0; i < main_n; i += kLanes) {
    Vd ad{}, bd{};
    ops.load(i, ad, bd);
    blended_step<kStoreErrors>(ad, bd, p, e, i, acc);
  }
  double count = 0.0;
  BlockStats s = acc.fold(count);
  reduce_tail<kStoreErrors>(ops, p, e, main_n, n, s, count);
  s.n = static_cast<std::uint64_t>(count);
  return s;
}

#ifdef REALM_HAVE_X86_64_V4_CLONE
// Quotients of the exact-product row loop.  Both return IEEE n / d; the
// second only for integer d < 2^52 (row_quotient.hpp).
struct Divide {
  [[gnu::always_inline]] static void quotient(const Vd& n, const Vd& d, Vd& q) {
    q = n / d;
  }
};

struct FmaReciprocal {
  [[gnu::target("arch=x86-64-v4")]] static void quotient(const Vd& n, const Vd& d,
                                                         Vd& q) {
    __m512d qm;
    detail::fma_quotient(_mm512_loadu_pd(&n[0]), _mm512_loadu_pd(&d[0]), qm);
    _mm512_storeu_pd(&q[0], qm);
  }
};

// One vector of the row loop: every pair is valid, so nothing is blended.
template <class Quotient>
[[gnu::always_inline]] inline void exact_step(const Vd& exact, const std::uint64_t* p,
                                              double* e, std::size_t i, Lanes& acc) {
  const Vd pd = __builtin_convertvector(*reinterpret_cast<const Vu*>(p + i), Vd);
  Vd ev;
  Quotient::quotient(pd - exact, exact, ev);
  *reinterpret_cast<Vd*>(e + i) = ev;
  acc.add(ev, ev, ev);
}

// reduce_block<true> for a row tile (a, b0 + i), i < n, with a != 0 and
// every product a·b an integer below 2^52 (operands of at most
// kExactRowWidth bits), on a CPU with x86-64-v4.  Every pair is valid
// except the zero column, so only a tile that starts at column 0 blends,
// and only its first vector.  `exact` advances by 8a per vector, which is
// exact below 2^53, and the lane count is the number of vectors.  Vectors
// alternate between `/` and the FMA quotient, so the divider and the FMA
// ports run side by side.  Every quotient is IEEE n / d, so the result is
// bit-identical to reduce_block's.  flatten inlines FmaReciprocal::quotient,
// which only an x86-64-v4 caller may inline.
[[gnu::target("arch=x86-64-v4"), gnu::flatten]] BlockStats reduce_row_fma(
    std::uint64_t a, std::uint64_t b0, const std::uint64_t* __restrict p,
    double* __restrict e, std::size_t n) {
  const RowOperands ops{a, b0};
  Lanes acc;
  const std::size_t main_n = n - n % kLanes;
  std::size_t i = 0;
  if (b0 == 0 && main_n > 0) {
    Vd ad{}, bd{};
    ops.load(0, ad, bd);
    blended_step<true>(ad, bd, p, e, 0, acc);
    i = kLanes;
  }
  const auto exact_pairs = static_cast<double>(main_n - i);
  Vd ad{}, exact{};
  ops.load(i, ad, exact);
  exact *= ad;
  const Vd step = Vd{} + static_cast<double>(kLanes * a);
  for (; i + 2 * kLanes <= main_n; i += 2 * kLanes) {
    exact_step<Divide>(exact, p, e, i, acc);
    exact += step;
    exact_step<FmaReciprocal>(exact, p, e, i + kLanes, acc);
    exact += step;
  }
  if (i < main_n) exact_step<Divide>(exact, p, e, i, acc);

  double count = 0.0;
  BlockStats s = acc.fold(count);
  count += exact_pairs;
  reduce_tail<true>(ops, p, e, main_n, n, s, count);
  s.n = static_cast<std::uint64_t>(count);
  return s;
}
#endif

// Reduces one exhaustive row tile through `loop`, storing e[]; the zero row
// has no valid pair and takes the blended loop.
BlockStats reduce_tile(detail::RowLoop loop, std::uint64_t a, std::uint64_t b0,
                       const std::uint64_t* p, double* e, std::size_t n) {
#ifdef REALM_HAVE_X86_64_V4_CLONE
  if (a != 0 && loop == detail::RowLoop::kFmaReciprocal) {
    return reduce_row_fma(a, b0, p, e, n);
  }
#else
  (void)loop;
#endif
  return reduce_block<true>(RowOperands{a, b0}, p, e, n);
}

ErrorAccumulator stats_to_acc(const BlockStats& s) noexcept {
  if (s.n == 0) return {};
  const double mean = s.sum / static_cast<double>(s.n);
  // Σ(e - mean)² = Σe² - Σe·mean.  Blocks are small (≤ kBatchPairs) and |e|
  // is O(1), so the cancellation is benign; cross-block combination then
  // goes through the stable pairwise merge().
  return ErrorAccumulator::from_moments(s.n, mean, s.sumsq - s.sum * mean,
                                        s.abs_sum, s.min, s.max);
}

// Working peaks of a block, a shard or a whole sweep.  Errors are kept as
// fractions (not percent) so peak comparisons use the exact values
// reduce_block produced; conversion to percent happens once in the final
// report.  The ±inf sentinels lose every comparison, so an empty block or
// shard merges as a no-op.
struct Peaks {
  PeakWitness min{0, 0, 0, std::numeric_limits<double>::infinity(), false};
  PeakWitness max{0, 0, 0, -std::numeric_limits<double>::infinity(), false};
};

struct PeaksWon {
  bool min = false;
  bool max = false;
};

// The one peak merge, used for blocks into their shard and for shards into
// the sweep, both in scan order.  Comparisons are strict, so a tie keeps the
// peak already held: the witness is the first pair in (a, b) scan order.
PeaksWon merge_peaks(Peaks& into, const Peaks& from) {
  PeaksWon won;
  if (from.min.error < into.min.error) {
    into.min = from.min;
    won.min = true;
  }
  if (from.max.error > into.max.error) {
    into.max = from.max;
    won.max = true;
  }
  return won;
}

// Fills in the operands of a block peak that just won: the first column of
// the block whose error equals w.error.  Runs only when a block beats the
// shard's running peak, so the scan is rare and the common path stays
// vectorized; "first in scan order" makes the witness deterministic.  The
// b != 0 guard keeps a zero pair's forced e = 0 from matching a genuine 0.0
// peak (e.g. the accurate design's max).
void locate_peak(std::uint64_t a, std::uint64_t b0, const std::uint64_t* p,
                 const double* e, std::size_t n, PeakWitness& w) {
  for (std::size_t i = 0; i < n; ++i) {
    if (b0 + i != 0 && e[i] == w.error) {
      w.a = a;
      w.b = b0 + i;
      w.product = p[i];
      return;
    }
  }
}

// What every shard of every engine returns: its error moments and, for the
// tiled exhaustive engine, its peak witnesses.
struct ShardOut {
  ErrorAccumulator acc;
  Peaks peaks;
};

// Part `i` of an even split of `total` items into `parts`: the first
// total % parts parts take one extra item.  Splits MC sample budgets and
// exhaustive row ranges alike.
struct Part {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
};

Part split_part(std::uint64_t total, std::uint64_t parts, std::uint64_t i) {
  const std::uint64_t per = total / parts;
  const std::uint64_t rem = total % parts;
  return {i * per + std::min(i, rem), per + (i < rem ? 1 : 0)};
}

// The one shard driver: runs shard(si, shard_hist) for si in [0, shards) on
// the shared pool, each shard with a private histogram when `hist` is
// given, then merges moments, peaks and histograms in shard order under the
// `merge_span` trace scope (none when null).  Seed-stability invariant: the
// caller's shard grid is a fixed function of the workload, never of
// `threads`, so the merged result is independent of how many threads run it.
template <class Fn>
ShardOut run_shards(std::uint64_t shards, int threads, Histogram* hist,
                    const char* merge_span, const Fn& shard) {
  std::vector<ShardOut> outs(shards);
  std::vector<Histogram> shard_hists;
  if (hist != nullptr) {
    shard_hists.assign(static_cast<std::size_t>(shards),
                       Histogram{hist->lo(), hist->hi(), hist->bins()});
  }

  num::ThreadPool::global().run(
      static_cast<std::size_t>(shards), threads,
      [&](std::size_t si) {
        outs[si] = shard(si, hist != nullptr ? &shard_hists[si] : nullptr);
      });

  const obs::ScopedSpan span{merge_span};
  ShardOut total;
  for (const auto& o : outs) {
    total.acc.merge(o.acc);
    merge_peaks(total.peaks, o.peaks);
  }
  if (hist != nullptr) {
    for (const auto& h : shard_hists) hist->merge(h);
  }
  return total;
}

// The exhaustive shard grid over rows [a0, a1]: kExhaustiveShards row
// blocks, capped by the row count — a function of the input range alone.
// row_shard(r0, n_rows, hist) sweeps rows [r0, r0 + n_rows).
template <class Fn>
ShardOut run_row_shards(std::uint64_t a0, std::uint64_t a1, int threads,
                        Histogram* hist, const Fn& row_shard) {
  const std::uint64_t rows = a1 - a0 + 1;
  const std::uint64_t shards = std::min<std::uint64_t>(rows, kExhaustiveShards);
  return run_shards(shards, threads, hist, nullptr,
                    [&](std::size_t si, Histogram* h) {
                      const Part part = split_part(rows, shards, si);
                      return row_shard(a0 + part.first, part.count, h);
                    });
}

// One Monte-Carlo shard: generate → multiply_batch → reduce, kBatchPairs at
// a time.  Everything depends only on (seed, samples), never on which worker
// runs the shard.
ShardOut run_mc_shard(const Multiplier& design, std::uint64_t samples,
                      std::uint64_t seed, Histogram* hist) {
  REALM_TRACE_SCOPE("mc/shard");
  const int shift = 64 - design.width();
  Scratch& buf = scratch();
  ShardOut out;

  std::uint64_t pair0 = 0;
  while (pair0 < samples) {
    const auto block = static_cast<std::size_t>(
        std::min<std::uint64_t>(samples - pair0, kBatchPairs));
    generate_block(seed, pair0, shift, buf.a.data(), buf.b.data(), block);
    design.multiply_batch(buf.a.data(), buf.b.data(), buf.p.data(), block);
    const BufferOperands ops{buf.a.data(), buf.b.data()};
    if (hist == nullptr) {
      out.acc.merge(stats_to_acc(reduce_block<false>(ops, buf.p.data(), nullptr, block)));
    } else {
      out.acc.merge(stats_to_acc(reduce_block<true>(ops, buf.p.data(), buf.e.data(), block)));
      for (std::size_t i = 0; i < block; ++i) {
        if (buf.a[i] != 0 && buf.b[i] != 0) hist->add(100.0 * buf.e[i]);
      }
    }
    pair0 += block;
  }
  obs::counter_add(obs::Counter::kMcSamples, samples);
  obs::counter_add(obs::Counter::kMcShards, 1);
  return out;
}

// One exhaustive shard: rows [r0, r0 + n_rows) × columns [b_lo, b_hi], each
// row through multiply_row_range in kBatchPairs-column tiles (one tile ≈
// 64 KiB of product + error working set, L2-resident).  Fold order matches
// exhaustive_generic_reference exactly: per row, column tiles in ascending
// order, blocks merged as they complete.
ShardOut run_exhaustive_shard(const Multiplier& design, std::uint64_t r0,
                              std::uint64_t n_rows, std::uint64_t b_lo,
                              std::uint64_t b_hi, Histogram* hist) {
  REALM_TRACE_SCOPE("exhaustive/shard");
  Scratch& buf = scratch();
  ShardOut out;
  std::uint64_t tiles = 0;
  const detail::RowLoop loop = detail::row_loop(design.width());
  for (std::uint64_t a = r0; a < r0 + n_rows; ++a) {
    std::uint64_t b = b_lo;
    while (b <= b_hi) {
      const auto block = static_cast<std::size_t>(
          std::min<std::uint64_t>(b_hi - b + 1, kBatchPairs));
      design.multiply_row_range(a, b, buf.p.data(), block);
      // e[] is stored: locate_peak and the histogram read it.  The store
      // costs nothing measurable beside the quotients, while reducing a
      // block that won a peak a second time to refill e[] costs a tile.
      const BlockStats s =
          reduce_tile(loop, a, b, buf.p.data(), buf.e.data(), block);
      out.acc.merge(stats_to_acc(s));
      // The block's peak values merge first; their operands are located
      // only for a side the block won.
      const PeaksWon won =
          merge_peaks(out.peaks, {{0, 0, 0, s.min, true}, {0, 0, 0, s.max, true}});
      if (won.min) locate_peak(a, b, buf.p.data(), buf.e.data(), block, out.peaks.min);
      if (won.max) locate_peak(a, b, buf.p.data(), buf.e.data(), block, out.peaks.max);
      if (hist != nullptr) {
        for (std::size_t i = 0; i < block; ++i) {
          if (a != 0 && b + i != 0) hist->add(100.0 * buf.e[i]);
        }
      }
      ++tiles;
      b += block;
    }
  }
  obs::counter_add(obs::Counter::kMcSamples, n_rows * (b_hi - b_lo + 1));
  obs::counter_add(obs::Counter::kMcShards, 1);
  obs::counter_add(obs::Counter::kExhaustiveRows, n_rows);
  obs::counter_add(obs::Counter::kExhaustiveTiles, tiles);
  return out;
}

}  // namespace

ErrorMetrics monte_carlo(const Multiplier& design, const MonteCarloOptions& opts,
                         Histogram* hist) {
  // Run-over-run bench diffs key on both outer span names.
  const obs::ScopedSpan outer{hist != nullptr ? "mc/histogram" : "mc/total"};
  REALM_TRACE_SCOPE("mc/run");
  const std::uint64_t shards = mc_shard_count(opts.samples);

  // Seed-stability invariant: shard seeds come from the splitmix64 sequence
  // over the user seed, in shard order, exactly as the seed implementation
  // derived its per-thread seeds — but the shard count is a function of the
  // sample budget alone, so the merged result is independent of how many
  // threads execute the shards.
  std::uint64_t st = opts.seed;
  std::vector<std::uint64_t> seeds(shards);
  for (auto& s : seeds) s = num::splitmix64(st);

  return run_shards(shards, opts.threads, hist, "mc/merge",
                    [&](std::size_t si, Histogram* h) {
                      return run_mc_shard(design,
                                          split_part(opts.samples, shards, si).count,
                                          seeds[si], h);
                    })
      .acc.metrics();
}

ErrorMetrics exhaustive_generic_reference(const Multiplier& design,
                                          std::optional<std::uint64_t> lo,
                                          std::optional<std::uint64_t> hi,
                                          int threads) {
  const std::uint64_t a0 = lo.value_or(0);
  const std::uint64_t a1 = hi.value_or(num::mask(design.width()));
  if (a1 < a0) return ErrorMetrics{};

  // The tiled engine's shard grid and fold order; each block materializes
  // the broadcast row and the column iota and runs the generic kernel.
  return run_row_shards(
             a0, a1, threads, nullptr,
             [&](std::uint64_t r0, std::uint64_t n_rows, Histogram*) {
               REALM_TRACE_SCOPE("exhaustive/shard");
               obs::counter_add(obs::Counter::kMcSamples, n_rows * (a1 - a0 + 1));
               obs::counter_add(obs::Counter::kMcShards, 1);
               Scratch& buf = scratch();
               ShardOut out;
               for (std::uint64_t a = r0; a < r0 + n_rows; ++a) {
                 std::uint64_t b = a0;
                 while (b <= a1) {
                   const auto block = static_cast<std::size_t>(
                       std::min<std::uint64_t>(a1 - b + 1, kBatchPairs));
                   for (std::size_t i = 0; i < block; ++i) {
                     buf.a[i] = a;
                     buf.b[i] = b + i;
                   }
                   design.multiply_batch(buf.a.data(), buf.b.data(), buf.p.data(),
                                         block);
                   out.acc.merge(stats_to_acc(
                       reduce_block<false>(BufferOperands{buf.a.data(), buf.b.data()},
                                           buf.p.data(), nullptr, block)));
                   b += block;
                 }
               }
               return out;
             })
      .acc.metrics();
}

ExhaustiveReport exhaustive_report(const Multiplier& design, Histogram* hist,
                                   std::optional<std::uint64_t> lo,
                                   std::optional<std::uint64_t> hi, int threads) {
  const std::uint64_t full = num::mask(design.width());
  const std::uint64_t a0 = lo.value_or(0);
  const std::uint64_t a1 = hi.value_or(full);
  if (a0 > a1) {
    throw std::invalid_argument("exhaustive: lo (" + std::to_string(a0) +
                                ") must be <= hi (" + std::to_string(a1) + ")");
  }
  if (a1 > full) {
    throw std::invalid_argument("exhaustive: hi (" + std::to_string(a1) +
                                ") must be < 2^width (width " +
                                std::to_string(design.width()) + ")");
  }

  REALM_TRACE_SCOPE("exhaustive/run");
  const ShardOut total = run_row_shards(
      a0, a1, threads, hist,
      [&](std::uint64_t r0, std::uint64_t n_rows, Histogram* h) {
        return run_exhaustive_shard(design, r0, n_rows, a0, a1, h);
      });

  ExhaustiveReport rep;
  rep.metrics = total.acc.metrics();
  rep.pairs = (a1 - a0 + 1) * (a1 - a0 + 1);
  if (total.peaks.min.valid) {
    rep.min_peak = total.peaks.min;
    rep.min_peak.error *= 100.0;
    rep.max_peak = total.peaks.max;
    rep.max_peak.error *= 100.0;
  }
  return rep;
}

ErrorMetrics exhaustive_scalar_reference(const Multiplier& design,
                                         std::optional<std::uint64_t> lo,
                                         std::optional<std::uint64_t> hi) {
  const std::uint64_t a0 = lo.value_or(0);
  const std::uint64_t a1 = hi.value_or(num::mask(design.width()));
  ErrorAccumulator acc;
  for (std::uint64_t a = a0; a <= a1; ++a) {
    for (std::uint64_t b = a0; b <= a1; ++b) {
      acc.add_pair(static_cast<double>(design.multiply(a, b)),
                   static_cast<double>(a) * static_cast<double>(b));
    }
  }
  return acc.metrics();
}

ErrorMetrics monte_carlo_scalar_reference(const Multiplier& design,
                                          const MonteCarloOptions& opts) {
  // Verbatim port of the pre-engine implementation (see file header).
  const auto scalar_shard = [&design](std::uint64_t samples, std::uint64_t seed) {
    num::Xoshiro256 rng{seed};
    const std::uint64_t range = std::uint64_t{1} << design.width();
    ErrorAccumulator acc;
    for (std::uint64_t i = 0; i < samples; ++i) {
      const std::uint64_t a = rng.below(range);
      const std::uint64_t b = rng.below(range);
      if (a == 0 || b == 0) continue;
      const double exact = static_cast<double>(a) * static_cast<double>(b);
      acc.add((static_cast<double>(design.multiply(a, b)) - exact) / exact);
    }
    return acc;
  };

  const unsigned threads = num::ThreadPool::global().parallelism(opts.threads);
  if (threads <= 1) {
    std::uint64_t st = opts.seed;
    return scalar_shard(opts.samples, num::splitmix64(st)).metrics();
  }

  std::vector<ErrorAccumulator> shards(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  std::uint64_t st = opts.seed;
  std::vector<std::uint64_t> seeds(threads);
  for (auto& s : seeds) s = num::splitmix64(st);

  const std::uint64_t per = opts.samples / threads;
  const std::uint64_t rem = opts.samples % threads;
  for (unsigned ti = 0; ti < threads; ++ti) {
    const std::uint64_t n = per + (ti < rem ? 1 : 0);
    pool.emplace_back(
        [&, ti, n] { shards[ti] = scalar_shard(n, seeds[ti]); });
  }
  for (auto& th : pool) th.join();

  ErrorAccumulator total;
  for (const auto& s : shards) total.merge(s);
  return total.metrics();
}

}  // namespace realm::err
