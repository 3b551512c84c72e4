// Monte-Carlo and exhaustive error characterization engines.
//
// The paper characterizes every 16-bit design with 2^24 input pairs drawn
// uniformly from {0, ..., 2^16-1} (§IV-B).  For widths up to ~10 bits the
// full input cross-product is cheaper than sampling, so an exhaustive engine
// is provided as well (and used by the tests to pin down exact peak errors).
//
// This is the hottest path in the repository.  The engines (defined in
// src/error/eval_engine.cpp) get their speed from four mechanisms:
//
//   1. batching — operands are generated in blocks of kBatchPairs and fed
//      through Multiplier::multiply_batch, paying one virtual dispatch per
//      block instead of per product and letting the devirtualized,
//      branchless kernels keep configuration constants in registers and
//      auto-vectorize (with runtime ISA dispatch, see numeric/simd.hpp);
//   2. vector-friendly statistics — each shard draws its operands from the
//      counter form of splitmix64 (pure function of (shard seed, draw
//      index), no loop-carried dependency) and reduces each block to raw
//      moments with fixed-lane loops, folding blocks through the stable
//      ErrorAccumulator merge instead of running Welford per sample;
//   3. a persistent thread pool (num::ThreadPool::global()) — shards are
//      executed by long-lived workers instead of freshly spawned threads;
//   4. fixed sharding — work is split into shards whose count, seeds
//      (splitmix64 over the user seed, in shard order) and sample counts
//      depend only on the workload, never on the thread count.  One shard
//      driver runs every engine's grid and merges shard results in shard
//      order, and one block reduction serves every engine.
//
// Mechanism 4 is the engines' *seed-stability invariant*: a run is
// bit-identical for threads = 1, 2, or hardware_concurrency, so error tables
// produced on a laptop and a 128-core sweep box agree exactly.
//
// The pre-engine paths are kept as the *_reference functions at the end of
// this header, so benches can track the speedup and tests can cross-check
// the statistics.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "realm/error/histogram.hpp"
#include "realm/error/metrics.hpp"
#include "realm/multiplier.hpp"

namespace realm::err {

struct MonteCarloOptions {
  std::uint64_t samples = std::uint64_t{1} << 24;  ///< paper default
  std::uint64_t seed = 0x5eed5eed5eed5eedULL;
  int threads = 0;  ///< parallelism cap; 0 or negative = all cores.  Never
                    ///< affects results, only how many pool workers run.
};

/// Samples per Monte-Carlo shard.  Small enough that the paper's default
/// budget (2^24) fans out into 1024 shards — ample load-balancing
/// granularity for any realistic core count — while keeping per-shard
/// bookkeeping negligible.  Part of the deterministic contract: changing it
/// changes which samples land in which shard, and therefore the low-order
/// bits of the merged statistics.
inline constexpr std::uint64_t kMcShardSamples = std::uint64_t{1} << 14;

/// Operand pairs per multiply_batch call inside a shard (a, b, product and
/// error blocks ≈ 4 × 32 KiB of working set, L2-resident; measured faster
/// than both 1024 and 8192 on AVX-512 hardware).
inline constexpr std::size_t kBatchPairs = 4096;

/// Row blocks an exhaustive sweep is split into (capped by the row count).
/// Like the Monte-Carlo shard count this depends only on the input range.
inline constexpr std::uint64_t kExhaustiveShards = 256;

/// Number of shards used for a given sample budget.
[[nodiscard]] constexpr std::uint64_t mc_shard_count(std::uint64_t samples) noexcept {
  const std::uint64_t shards = (samples + kMcShardSamples - 1) / kMcShardSamples;
  return shards == 0 ? 1 : shards;
}

/// Uniform-input Monte-Carlo characterization of `design` against the exact
/// product, through multiply_batch on the shared pool.  Bit-identical for a
/// fixed (samples, seed) at *any* thread count: shards are a function of the
/// sample budget alone, each derives its own splitmix64 seed, and shards
/// merge in index order.  A non-null `hist` is additionally filled with the
/// relative errors in percent (per-shard private histograms merged in shard
/// order); the metrics do not depend on whether it is given.
[[nodiscard]] ErrorMetrics monte_carlo(const Multiplier& design,
                                       const MonteCarloOptions& opts = {},
                                       Histogram* hist = nullptr);

/// Operand pair realizing a peak relative error, recorded exactly (the
/// integer inputs and the integer approximate product, not a rounded
/// reconstruction).  `error` is the relative error in percent, matching
/// ErrorMetrics units; `valid` is false when the swept range contained no
/// pair with a nonzero exact product.
struct PeakWitness {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t product = 0;  ///< design.multiply(a, b), exact integer
  double error = 0.0;         ///< relative error at (a, b), percent
  bool valid = false;
};

/// Full result of an exhaustive characterization: the usual metrics plus
/// integer-exact witnesses of both peak errors and the total pair count
/// (including skipped zero pairs).
struct ExhaustiveReport {
  ErrorMetrics metrics;
  PeakWitness min_peak;      ///< witness of metrics.min (most negative)
  PeakWitness max_peak;      ///< witness of metrics.max (most positive)
  std::uint64_t pairs = 0;   ///< (hi - lo + 1)², all pairs enumerated
};

/// Exhaustive sweep over all (a, b) pairs with a, b in [lo, hi] (defaults to
/// the full width() range), on the tiled fixed-operand engine: each row holds
/// `a` constant and runs Multiplier::multiply_row_range over L2-resident
/// column blocks, so per-row work (the fixed operand's LOD, log fraction and
/// LUT segment row) is hoisted out of the inner loop.  Callers that need only
/// the metrics read `.metrics`.
///
/// The report carries integer-exact peak witnesses — the first pair in
/// (a, b) scan order realizing each peak, found by a block-level rescan only
/// when a block beats the running peak, so the common path stays
/// vectorized — and a non-null `hist` is filled with the exact error
/// histogram (percent units, per-shard private histograms merged in shard
/// order).
///
/// Cost is exactly (hi - lo + 1)² products: the full 16-bit space is 2^32
/// pairs (seconds per design on the row-hoisted kernels), the full 2N-bit
/// space grows as 4^N — budget before calling (a 24-bit design is 2^48 pairs,
/// i.e. ~6 core-hours per 10⁹ pairs/s, and 31 bits is out of reach).
///
/// Validation: throws std::invalid_argument unless lo <= hi and
/// hi < 2^width().  Deterministic for any thread count: the shard grid
/// depends only on the input range and shards merge in shard order.
[[nodiscard]] ExhaustiveReport exhaustive_report(const Multiplier& design,
                                                 Histogram* hist = nullptr,
                                                 std::optional<std::uint64_t> lo = {},
                                                 std::optional<std::uint64_t> hi = {},
                                                 int threads = 0);

/// The seed implementation kept verbatim as a performance/statistics
/// reference: per-sample virtual dispatch, one shard per thread, fresh
/// std::threads each call.  Not thread-count deterministic (the historical
/// behavior).  Used by the eval-engine bench to report the speedup and by
/// tests to confirm the engine's statistics match the legacy path.
[[nodiscard]] ErrorMetrics monte_carlo_scalar_reference(const Multiplier& design,
                                                        const MonteCarloOptions& opts);

/// The pre-tiling exhaustive engine: the same shard grid and fold order,
/// but each block materializes the broadcast fixed operand and the column
/// iota into operand buffers and runs the generic multiply_batch kernel.
/// The tiled engine (exhaustive_report) must match it bit-for-bit — both run
/// the one block reduction, which sees the identical doubles whether the
/// operands come from buffers or from the row and the column index — which
/// the tests assert; benches report the row-hoisted speedup against it.
[[nodiscard]] ErrorMetrics exhaustive_generic_reference(
    const Multiplier& design, std::optional<std::uint64_t> lo = {},
    std::optional<std::uint64_t> hi = {}, int threads = 0);

/// Single-threaded per-pair virtual-dispatch exhaustive sweep (Welford
/// accumulation, no batching).  The statistics baseline for tests and the
/// scalar end of the bench's speedup ladder; not bit-identical to the
/// batched engines (different summation order), only numerically close.
[[nodiscard]] ErrorMetrics exhaustive_scalar_reference(
    const Multiplier& design, std::optional<std::uint64_t> lo = {},
    std::optional<std::uint64_t> hi = {});

}  // namespace realm::err
