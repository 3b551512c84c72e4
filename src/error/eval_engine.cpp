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

namespace realm::err {
namespace {

unsigned resolve_threads(int requested) {
  if (requested > 0) return static_cast<unsigned>(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

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
// uniform over [0, 2^width)).  No loop-carried dependency — vectorizes.
REALM_MULTIVERSION
void generate_block(std::uint64_t seed, std::uint64_t first_pair, int shift,
                    std::uint64_t* __restrict a, std::uint64_t* __restrict b,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t j = 2 * (first_pair + i);
    a[i] = num::splitmix64_at(seed, j) >> shift;
    b[i] = num::splitmix64_at(seed, j + 1) >> shift;
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

// Reduces a block of products to BlockStats and writes the per-pair relative
// errors to e[] (0 for skipped zero pairs) for the histogram pass.  Zero
// pairs are skipped exactly as in the scalar reference: the max() divisor
// keeps the (unconditional) division safe, and the mask blend forces e to
// exactly 0 so the pair drops out of the sums even for designs whose product
// is nonzero for a zero operand (e.g. TRUNC's correction constant); min/max
// and the count blend the pair away.  Lanes fold in fixed order and the tail
// runs the same formulas in scalar, so the result is deterministic.
REALM_MULTIVERSION
BlockStats reduce_block(const std::uint64_t* __restrict a,
                        const std::uint64_t* __restrict b,
                        const std::uint64_t* __restrict p, double* __restrict e,
                        std::size_t n) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Vd vzero = Vd{};
  const Vd vone = vzero + 1.0;
  const Vd vinf = vzero + kInf;
  Vd vsum{}, vsumsq{}, vabs{}, vcnt{};
  Vd vmn = vinf, vmx = -vinf;

  const std::size_t main_n = n - n % kLanes;
  for (std::size_t i = 0; i < main_n; i += kLanes) {
    // All comparisons are on doubles — integer vector compares lower to
    // scalar extract sequences on GCC 12, FP compares to vcmppd + blends.
    // A pair is valid iff exact > 0 (operands are < 2^31, so the product
    // converts without losing the zero/nonzero distinction).
    const Vd ad = __builtin_convertvector(*reinterpret_cast<const Vu*>(a + i), Vd);
    const Vd bd = __builtin_convertvector(*reinterpret_cast<const Vu*>(b + i), Vd);
    const Vd pd = __builtin_convertvector(*reinterpret_cast<const Vu*>(p + i), Vd);
    const Vd exact = ad * bd;
    const Vd divisor = exact > vone ? exact : vone;  // 1.0 only for zero pairs
    const Vd eraw = (pd - exact) / divisor;
    const Vd validm = exact > vzero ? vone : vzero;
    const Vd ev = eraw * validm;  // exact 0 for zero pairs (eraw is finite)
    *reinterpret_cast<Vd*>(e + i) = ev;
    vsum += ev;
    vsumsq += ev * ev;
    vabs += reinterpret_cast<Vd>(reinterpret_cast<Vu>(ev) & 0x7fffffffffffffffULL);
    const Vd cmin = exact > vzero ? ev : vinf;
    const Vd cmax = exact > vzero ? ev : -vinf;
    vmn = vmn < cmin ? vmn : cmin;
    vmx = vmx > cmax ? vmx : cmax;
    vcnt += validm;
  }

  BlockStats s;
  double cnt = 0.0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    s.sum += vsum[l];
    s.sumsq += vsumsq[l];
    s.abs_sum += vabs[l];
    s.min = std::min(s.min, vmn[l]);
    s.max = std::max(s.max, vmx[l]);
    cnt += vcnt[l];
  }
  for (std::size_t i = main_n; i < n; ++i) {
    const double exact = static_cast<double>(a[i]) * static_cast<double>(b[i]);
    const double eraw = (static_cast<double>(p[i]) - exact) / std::max(exact, 1.0);
    const double ev = exact > 0.0 ? eraw : 0.0;
    e[i] = ev;
    s.sum += ev;
    s.sumsq += ev * ev;
    s.abs_sum += std::fabs(ev);
    if (exact > 0.0) {
      s.min = std::min(s.min, ev);
      s.max = std::max(s.max, ev);
      cnt += 1.0;
    }
  }
  s.n = static_cast<std::uint64_t>(cnt);
  return s;
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

// Reduces a fixed-operand block — products of (a, b0 + i) for i in [0, n) —
// to BlockStats.  Performs the *identical* IEEE operations on the identical
// values in the identical order as reduce_block would on materialized
// operand buffers (the broadcast of a and the column iota convert to the
// same doubles), so the tiled exhaustive engine is bit-identical to the
// generic-batched reference; the operands are simply never stored or
// re-loaded.
REALM_MULTIVERSION
BlockStats reduce_row_block(std::uint64_t a, std::uint64_t b0,
                            const std::uint64_t* __restrict p,
                            double* __restrict e, std::size_t n) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Vd vzero = Vd{};
  const Vd vone = vzero + 1.0;
  const Vd vinf = vzero + kInf;
  const Vd ad = vzero + static_cast<double>(a);
  const Vu iota = {0, 1, 2, 3, 4, 5, 6, 7};
  Vd vsum{}, vsumsq{}, vabs{}, vcnt{};
  Vd vmn = vinf, vmx = -vinf;

  const std::size_t main_n = n - n % kLanes;
  for (std::size_t i = 0; i < main_n; i += kLanes) {
    const Vu bu = (Vu{} + (b0 + i)) + iota;
    const Vd bd = __builtin_convertvector(bu, Vd);
    const Vd pd = __builtin_convertvector(*reinterpret_cast<const Vu*>(p + i), Vd);
    const Vd exact = ad * bd;
    const Vd divisor = exact > vone ? exact : vone;
    const Vd eraw = (pd - exact) / divisor;
    const Vd validm = exact > vzero ? vone : vzero;
    const Vd ev = eraw * validm;
    *reinterpret_cast<Vd*>(e + i) = ev;
    vsum += ev;
    vsumsq += ev * ev;
    vabs += reinterpret_cast<Vd>(reinterpret_cast<Vu>(ev) & 0x7fffffffffffffffULL);
    const Vd cmin = exact > vzero ? ev : vinf;
    const Vd cmax = exact > vzero ? ev : -vinf;
    vmn = vmn < cmin ? vmn : cmin;
    vmx = vmx > cmax ? vmx : cmax;
    vcnt += validm;
  }

  BlockStats s;
  double cnt = 0.0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    s.sum += vsum[l];
    s.sumsq += vsumsq[l];
    s.abs_sum += vabs[l];
    s.min = std::min(s.min, vmn[l]);
    s.max = std::max(s.max, vmx[l]);
    cnt += vcnt[l];
  }
  for (std::size_t i = main_n; i < n; ++i) {
    const double exact = static_cast<double>(a) * static_cast<double>(b0 + i);
    const double eraw =
        (static_cast<double>(p[i]) - exact) / std::max(exact, 1.0);
    const double ev = exact > 0.0 ? eraw : 0.0;
    e[i] = ev;
    s.sum += ev;
    s.sumsq += ev * ev;
    s.abs_sum += std::fabs(ev);
    if (exact > 0.0) {
      s.min = std::min(s.min, ev);
      s.max = std::max(s.max, ev);
      cnt += 1.0;
    }
  }
  s.n = static_cast<std::uint64_t>(cnt);
  return s;
}

// One Monte-Carlo shard: generate → multiply_batch → reduce, kBatchPairs at
// a time.  Everything depends only on (seed, samples), never on which worker
// runs the shard.
ErrorAccumulator run_mc_shard(const Multiplier& design, std::uint64_t samples,
                              std::uint64_t seed, Histogram* hist) {
  REALM_TRACE_SCOPE("mc/shard");
  const int shift = 64 - design.width();
  Scratch& buf = scratch();
  ErrorAccumulator acc;

  std::uint64_t pair0 = 0;
  while (pair0 < samples) {
    const auto block = static_cast<std::size_t>(
        std::min<std::uint64_t>(samples - pair0, kBatchPairs));
    generate_block(seed, pair0, shift, buf.a.data(), buf.b.data(), block);
    design.multiply_batch(buf.a.data(), buf.b.data(), buf.p.data(), block);
    acc.merge(stats_to_acc(
        reduce_block(buf.a.data(), buf.b.data(), buf.p.data(), buf.e.data(), block)));
    if (hist != nullptr) {
      for (std::size_t i = 0; i < block; ++i) {
        if (buf.a[i] != 0 && buf.b[i] != 0) hist->add(100.0 * buf.e[i]);
      }
    }
    pair0 += block;
  }
  obs::counter_add(obs::Counter::kMcSamples, samples);
  obs::counter_add(obs::Counter::kMcShards, 1);
  return acc;
}

// Working peak state of one exhaustive shard.  Errors are kept as fractions
// (not percent) so peak comparisons use the exact values reduce_row_block
// produced; conversion to percent happens once in the final report.
struct ShardPeaks {
  double min_frac = std::numeric_limits<double>::infinity();
  double max_frac = -std::numeric_limits<double>::infinity();
  std::uint64_t min_a = 0, min_b = 0, min_p = 0;
  std::uint64_t max_a = 0, max_b = 0, max_p = 0;
  bool valid = false;  // some pair with exact > 0 was seen
};

// Records the first column of the block whose error equals `target`.  Called
// only when a block's min/max beats the shard's running peak, so the scan is
// rare and the common path stays vectorized; "first in scan order" makes the
// witness deterministic.  The b != 0 guard keeps a zero pair's forced e = 0
// from matching a genuine 0.0 peak (e.g. the accurate design's max).
void rescan_peak(std::uint64_t a, std::uint64_t b0, const std::uint64_t* p,
                 const double* e, std::size_t n, double target,
                 std::uint64_t& wa, std::uint64_t& wb, std::uint64_t& wp) {
  for (std::size_t i = 0; i < n; ++i) {
    if (b0 + i != 0 && e[i] == target) {
      wa = a;
      wb = b0 + i;
      wp = p[i];
      return;
    }
  }
}

struct ExhaustiveShardOut {
  ErrorAccumulator acc;
  ShardPeaks peaks;
};

// One exhaustive shard: rows [r0, r0 + n_rows) × columns [b_lo, b_hi], each
// row through multiply_row_range in kBatchPairs-column tiles (one tile ≈
// 64 KiB of product + error working set, L2-resident).  Fold order matches
// exhaustive_generic_reference exactly: per row, column tiles in ascending
// order, blocks merged as they complete.
ExhaustiveShardOut run_exhaustive_shard(const Multiplier& design,
                                        std::uint64_t r0, std::uint64_t n_rows,
                                        std::uint64_t b_lo, std::uint64_t b_hi,
                                        Histogram* hist) {
  REALM_TRACE_SCOPE("exhaustive/shard");
  Scratch& buf = scratch();
  ExhaustiveShardOut out;
  std::uint64_t tiles = 0;
  for (std::uint64_t a = r0; a < r0 + n_rows; ++a) {
    std::uint64_t b = b_lo;
    while (b <= b_hi) {
      const auto block = static_cast<std::size_t>(
          std::min<std::uint64_t>(b_hi - b + 1, kBatchPairs));
      design.multiply_row_range(a, b, buf.p.data(), block);
      const BlockStats s =
          reduce_row_block(a, b, buf.p.data(), buf.e.data(), block);
      out.acc.merge(stats_to_acc(s));
      if (s.n != 0) {
        if (s.min < out.peaks.min_frac) {
          out.peaks.min_frac = s.min;
          rescan_peak(a, b, buf.p.data(), buf.e.data(), block, s.min,
                      out.peaks.min_a, out.peaks.min_b, out.peaks.min_p);
        }
        if (s.max > out.peaks.max_frac) {
          out.peaks.max_frac = s.max;
          rescan_peak(a, b, buf.p.data(), buf.e.data(), block, s.max,
                      out.peaks.max_a, out.peaks.max_b, out.peaks.max_p);
        }
        out.peaks.valid = true;
      }
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
  // Bench history records key on both outer span names.
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

  const std::uint64_t per = opts.samples / shards;
  const std::uint64_t rem = opts.samples % shards;

  std::vector<ErrorAccumulator> accs(shards);
  std::vector<Histogram> shard_hists;
  if (hist != nullptr) {
    shard_hists.assign(static_cast<std::size_t>(shards),
                       Histogram{hist->lo(), hist->hi(), hist->bins()});
  }

  num::ThreadPool::global().run(
      static_cast<std::size_t>(shards), resolve_threads(opts.threads),
      [&](std::size_t si) {
        const std::uint64_t n = per + (si < rem ? 1 : 0);
        accs[si] = run_mc_shard(design, n, seeds[si],
                                hist != nullptr ? &shard_hists[si] : nullptr);
      });

  REALM_TRACE_SCOPE("mc/merge");
  ErrorAccumulator total;
  for (const auto& acc : accs) total.merge(acc);
  if (hist != nullptr) {
    for (const auto& h : shard_hists) hist->merge(h);
  }
  return total.metrics();
}

ErrorMetrics exhaustive_generic_reference(const Multiplier& design,
                                          std::optional<std::uint64_t> lo,
                                          std::optional<std::uint64_t> hi,
                                          int threads) {
  const std::uint64_t a0 = lo.value_or(0);
  const std::uint64_t a1 = hi.value_or(num::mask(design.width()));
  if (a1 < a0) return ErrorMetrics{};
  const std::uint64_t rows = a1 - a0 + 1;

  // Row-range sharding.  The shard grid depends only on the input range
  // (never the thread count), and shards merge in row order, so the result
  // is deterministic for any parallelism.
  const std::uint64_t shards = std::min<std::uint64_t>(rows, kExhaustiveShards);
  const std::uint64_t rows_per = rows / shards;
  const std::uint64_t rows_rem = rows % shards;

  std::vector<ErrorAccumulator> accs(shards);
  num::ThreadPool::global().run(
      static_cast<std::size_t>(shards), resolve_threads(threads),
      [&](std::size_t si) {
        // Shard si covers rows [r0, r0 + n_rows); the first rows_rem shards
        // take one extra row.
        const std::uint64_t r0 =
            a0 + si * rows_per + std::min<std::uint64_t>(si, rows_rem);
        const std::uint64_t n_rows = rows_per + (si < rows_rem ? 1 : 0);

        REALM_TRACE_SCOPE("exhaustive/shard");
        obs::counter_add(obs::Counter::kMcSamples, n_rows * (a1 - a0 + 1));
        obs::counter_add(obs::Counter::kMcShards, 1);
        Scratch& buf = scratch();
        ErrorAccumulator acc;
        for (std::uint64_t a = r0; a < r0 + n_rows; ++a) {
          std::uint64_t b = a0;
          while (b <= a1) {
            const auto block = static_cast<std::size_t>(
                std::min<std::uint64_t>(a1 - b + 1, kBatchPairs));
            for (std::size_t i = 0; i < block; ++i) {
              buf.a[i] = a;
              buf.b[i] = b + i;
            }
            design.multiply_batch(buf.a.data(), buf.b.data(), buf.p.data(), block);
            acc.merge(stats_to_acc(reduce_block(buf.a.data(), buf.b.data(),
                                                buf.p.data(), buf.e.data(), block)));
            b += block;
          }
        }
        accs[si] = acc;
      });

  ErrorAccumulator total;
  for (const auto& acc : accs) total.merge(acc);
  return total.metrics();
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
  const std::uint64_t rows = a1 - a0 + 1;

  // Seed-stability invariant: the shard grid is a fixed function of the
  // input range (kExhaustiveShards row blocks, capped by the row count),
  // never of the thread count, and shards merge in shard order below.
  const std::uint64_t shards = std::min<std::uint64_t>(rows, kExhaustiveShards);
  const std::uint64_t rows_per = rows / shards;
  const std::uint64_t rows_rem = rows % shards;

  std::vector<ExhaustiveShardOut> outs(shards);
  std::vector<Histogram> shard_hists;
  if (hist != nullptr) {
    shard_hists.assign(static_cast<std::size_t>(shards),
                       Histogram{hist->lo(), hist->hi(), hist->bins()});
  }

  num::ThreadPool::global().run(
      static_cast<std::size_t>(shards), resolve_threads(threads),
      [&](std::size_t si) {
        const std::uint64_t r0 =
            a0 + si * rows_per + std::min<std::uint64_t>(si, rows_rem);
        const std::uint64_t n_rows = rows_per + (si < rows_rem ? 1 : 0);
        outs[si] = run_exhaustive_shard(design, r0, n_rows, a0, a1,
                                        hist != nullptr ? &shard_hists[si] : nullptr);
      });

  ErrorAccumulator total;
  ShardPeaks best;
  for (const auto& o : outs) {
    total.merge(o.acc);
    if (!o.peaks.valid) continue;
    // Strict comparisons in shard order: ties keep the earliest shard's
    // witness, which is also the first in (a, b) scan order.
    if (o.peaks.min_frac < best.min_frac) {
      best.min_frac = o.peaks.min_frac;
      best.min_a = o.peaks.min_a;
      best.min_b = o.peaks.min_b;
      best.min_p = o.peaks.min_p;
    }
    if (o.peaks.max_frac > best.max_frac) {
      best.max_frac = o.peaks.max_frac;
      best.max_a = o.peaks.max_a;
      best.max_b = o.peaks.max_b;
      best.max_p = o.peaks.max_p;
    }
    best.valid = true;
  }
  if (hist != nullptr) {
    for (const auto& h : shard_hists) hist->merge(h);
  }

  ExhaustiveReport rep;
  rep.metrics = total.metrics();
  rep.pairs = rows * rows;
  if (best.valid) {
    rep.min_peak = {best.min_a, best.min_b, best.min_p, 100.0 * best.min_frac, true};
    rep.max_peak = {best.max_a, best.max_b, best.max_p, 100.0 * best.max_frac, true};
  }
  return rep;
}

ErrorMetrics exhaustive(const Multiplier& design, std::optional<std::uint64_t> lo,
                        std::optional<std::uint64_t> hi, int threads) {
  return exhaustive_report(design, nullptr, lo, hi, threads).metrics;
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

  const unsigned threads = resolve_threads(opts.threads);
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
