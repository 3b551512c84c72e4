// Batched evaluation engine: multiply_batch/multiply equivalence, the
// seed-stability (thread-count determinism) invariant, histogram sharding,
// and the persistent thread pool itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "realm/core/realm_multiplier.hpp"
#include "realm/error/monte_carlo.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/rng.hpp"
#include "realm/numeric/thread_pool.hpp"
#include "realm/obs/trace.hpp"

using namespace realm;

namespace {

// Random operand vectors for a width-n design, with zeros and the all-ones
// extremes sprinkled in so the special cases are exercised.
void fill_operands(int n, std::uint64_t seed, std::vector<std::uint64_t>& a,
                   std::vector<std::uint64_t>& b) {
  num::Xoshiro256 rng{seed};
  const std::uint64_t range = std::uint64_t{1} << n;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.below(range);
    b[i] = rng.below(range);
  }
  if (a.size() >= 4) {
    a[0] = 0;                              // zero-detect bypass
    b[1] = 0;
    a[2] = range - 1;                      // special case 1 territory
    b[2] = range - 1;
    a[3] = 1;                              // smallest nonzero products
    b[3] = 2;
  }
}

void expect_batch_matches_scalar(const Multiplier& m, std::uint64_t seed) {
  const std::size_t kPairs = 4099;  // deliberately not a batch multiple
  std::vector<std::uint64_t> a(kPairs), b(kPairs), out(kPairs);
  fill_operands(m.width(), seed, a, b);
  m.multiply_batch(a.data(), b.data(), out.data(), kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    ASSERT_EQ(out[i], m.multiply(a[i], b[i]))
        << m.name() << " diverges at a=" << a[i] << " b=" << b[i];
  }
}

// Row kernels against scalar multiply(): multiply_row_batch for a dozen fixed
// operands (zero and all-ones among them) over ragged column slices, and
// multiply_row_range over column ranges that start at 0 or 1 and cross
// powers of two.  Adds to `range_fallbacks` the fallback blocks the
// multiply_row_range calls counted; multiply_row_batch is always the base
// class's broadcast.
void expect_row_kernels_match_scalar(const Multiplier& m, std::uint64_t seed,
                                     std::uint64_t& range_fallbacks) {
  const std::size_t kCols = 1031;  // deliberately not a block multiple
  std::vector<std::uint64_t> rows(kCols), cols(kCols), out(kCols);
  fill_operands(m.width(), seed, rows, cols);
  const std::uint64_t top = std::uint64_t{1} << m.width();
  for (std::size_t r = 0; r < 12; ++r) {
    const std::uint64_t x = rows[r];
    std::size_t i0 = 0;
    for (std::size_t len = 1; i0 < kCols; len = 3 * len + 1) {  // 1, 4, 13, 40, ...
      const std::size_t take = std::min(len, kCols - i0);
      m.multiply_row_batch(x, cols.data() + i0, out.data() + i0, take);
      i0 += take;
    }
    for (std::size_t i = 0; i < kCols; ++i) {
      ASSERT_EQ(out[i], m.multiply(x, cols[i]))
          << m.name() << " row_batch diverges at a=" << x << " b=" << cols[i];
    }
    for (const std::uint64_t b0 :
         {std::uint64_t{0}, std::uint64_t{1}, top / 4 + 3, top / 2 - 100,
          top - std::min<std::uint64_t>(top, kCols)}) {
      const auto len = static_cast<std::size_t>(std::min<std::uint64_t>(kCols, top - b0));
      const std::uint64_t before = obs::counter_value(obs::Counter::kRowFallbackBatches);
      m.multiply_row_range(x, b0, out.data(), len);
      range_fallbacks += obs::counter_value(obs::Counter::kRowFallbackBatches) - before;
      for (std::size_t i = 0; i < len; ++i) {
        ASSERT_EQ(out[i], m.multiply(x, b0 + i))
            << m.name() << " row_range diverges at a=" << x << " b=" << b0 + i;
      }
    }
  }
}

void expect_metrics_identical(const err::ErrorMetrics& x, const err::ErrorMetrics& y) {
  EXPECT_EQ(x.samples, y.samples);
  EXPECT_EQ(x.bias, y.bias);
  EXPECT_EQ(x.mean, y.mean);
  EXPECT_EQ(x.variance, y.variance);
  EXPECT_EQ(x.min, y.min);
  EXPECT_EQ(x.max, y.max);
}

}  // namespace

TEST(MultiplyBatch, RealmMatchesScalarAcrossConfigGrid) {
  // Every valid t at N = 16, up to t = 15 - log2(M), where the forced LSB
  // falls into the segment (sel_shift = 0): the batch kernel's gathered LUT
  // lookup and the range kernel's column split against scalar multiply().
  std::uint64_t range_fallbacks = 0;
  for (const int m : {2, 4, 8, 16}) {
    const int max_t = 15 - std::countr_zero(static_cast<unsigned>(m));
    for (int t = 0; t <= max_t; ++t) {
      const core::RealmMultiplier mul{{.n = 16, .m = m, .t = t, .q = 6}};
      const auto salt = static_cast<unsigned>(m * 16 + t);
      expect_batch_matches_scalar(mul, 0xabcd0000u + salt);
      expect_row_kernels_match_scalar(mul, 0xabcd8000u + salt, range_fallbacks);
    }
  }
  EXPECT_EQ(range_fallbacks, 0u);
}

TEST(MultiplyBatch, AmSixteenBitKernelMatchesScalar) {
  // At N = 16 the AM kernels run 16-pair blocks in 32-bit lanes, hand the
  // remainder to 8-pair blocks in 64-bit lanes and zero-pad the last partial
  // block.  Every pair of a structured-plus-seeded operand set goes through
  // the batch kernel in calls of every length 1-47 in turn, and the range
  // kernel runs each operand over columns at both ends and the middle.
  std::vector<std::uint64_t> ops{0, 0xffff, 0xaaaa, 0x5555};
  for (int i = 0; i < 16; ++i) ops.push_back(std::uint64_t{1} << i);
  num::Xoshiro256 rng{0xa316};
  while (ops.size() < 48) ops.push_back(rng.below(65536));
  std::vector<std::uint64_t> a, b;
  for (const std::uint64_t x : ops) {
    for (const std::uint64_t y : ops) {
      a.push_back(x);
      b.push_back(y);
    }
  }
  constexpr std::size_t kMaxLen = 47;
  std::vector<std::uint64_t> out(a.size());
  for (const char* design : {"am1", "am2"}) {
    for (const int nb : {0, 5, 9, 13, 32}) {
      const auto m = mult::make_multiplier(std::string{design} + ":nb=" + std::to_string(nb), 16);
      for (std::size_t i0 = 0, len = 1; i0 < a.size(); i0 += len, len = len % kMaxLen + 1) {
        m->multiply_batch(a.data() + i0, b.data() + i0, out.data() + i0,
                          std::min(len, a.size() - i0));
      }
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(out[i], m->multiply(a[i], b[i]))
            << m->name() << " batch diverges at a=" << a[i] << " b=" << b[i];
      }
      std::size_t len = 0;
      for (const std::uint64_t x : ops) {
        for (const std::uint64_t b0 : {std::uint64_t{0}, std::uint64_t{0x7ff0},
                                       std::uint64_t{65536 - kMaxLen}}) {
          len = len % kMaxLen + 1;
          m->multiply_row_range(x, b0, out.data(), len);
          for (std::size_t i = 0; i < len; ++i) {
            ASSERT_EQ(out[i], m->multiply(x, b0 + i))
                << m->name() << " range of " << len << " diverges at a=" << x
                << " b=" << b0 + i;
          }
        }
      }
    }
  }
}

TEST(MultiplyBatch, RealmMatchesScalarAtOtherWidths) {
  for (const int n : {8, 12, 24, 31}) {
    const core::RealmMultiplier mul{{.n = n, .m = 8, .t = 0, .q = 6}};
    expect_batch_matches_scalar(mul, 0x1234u + static_cast<unsigned>(n));
  }
}

TEST(MultiplyBatch, EveryBaselineMatchesScalar) {
  // Every Table I design and the exact reference, at N = 16 and N = 10
  // (specs whose parameters are invalid at 10 bits are skipped there): the
  // batch, row and range kernels must match scalar multiply(), and no
  // multiply_row_range may reach the base-class broadcast fallback.  The
  // datapath-template families derive all three entry points from one policy
  // and AM's paths share one reduction tree, so this checks the lane
  // blocking and the range splitting; test_packed_simulator checks the
  // datapaths themselves against the gate-level netlists.
  const auto table1 = mult::table1_specs();
  std::set<std::string> specs{table1.begin(), table1.end()};
  specs.insert("accurate");
  std::uint64_t range_fallbacks = 0;
  std::uint64_t salt = 1;
  std::size_t checked_at_10 = 0;
  for (const int n : {16, 10}) {
    for (const auto& spec : specs) {
      std::unique_ptr<Multiplier> m;
      try {
        m = mult::make_multiplier(spec, n);
      } catch (const std::invalid_argument&) {
        EXPECT_NE(n, 16) << spec;
        continue;
      }
      expect_batch_matches_scalar(*m, 0x5eed0000u + salt);
      expect_row_kernels_match_scalar(*m, 0x5eed8000u + salt++, range_fallbacks);
      checked_at_10 += n == 10 ? 1 : 0;
    }
  }
  EXPECT_GE(checked_at_10, 40u);
  EXPECT_EQ(range_fallbacks, 0u);
}

TEST(MultiplyBatch, NarrowLanesMatchScalarAtEveryWidth) {
  // Up to 16 bits the datapath families' batch and range kernels run in
  // 32-bit lanes with a 64-bit final shift; scalar multiply() and wider
  // operands run 64-bit lanes.  17 bits is the first width past the cut.
  // The operands are 0, 1, 2^N - 1, every single-bit value, a sample of the
  // [2^N - 2^(N-4), 2^N) corner (where MBM's and REALM-M4's products pass
  // 2^32 at N = 16) and seeded values; every pair of them goes through the
  // batch kernel in calls of every length 1-47 in turn.  The range kernel
  // runs each operand over columns at both ends and across 2^(N-1), and from
  // 8 bits on a few operands over the lower half of the top interval, which
  // crosses 2^(N-1) and every REALM LUT column boundary in that half.
  const std::vector<std::string> specs{
      "realm:m=2,t=0", "realm:m=4,t=0", "realm:m=16,t=0", "realm:m=8,t=4",
      "calm",          "calm:t=1",      "mbm:t=0",        "mbm:t=1",
      "alm-soa:m=1",   "alm-soa:m=11",  "alm-maa:m=1",    "alm-maa:m=6",
      "implm",         "intalp:l=1",    "intalp:l=2",     "drum:k=3",
      "drum:k=6",      "ssm:m=1",       "ssm:m=10",       "essm:m=1",
      "essm:m=2",      "essm:m=8"};
  constexpr std::size_t kMaxLen = 47;
  std::size_t checked = 0;
  for (const int n : {2, 3, 8, 15, 16, 17}) {
    const std::uint64_t top = std::uint64_t{1} << n;
    const std::uint64_t corner = top - (top >> std::min(n, 4));
    std::vector<std::uint64_t> ops{0, 1, top - 1};
    for (int i = 0; i < n; ++i) ops.push_back(std::uint64_t{1} << i);
    const std::uint64_t corner_step = std::max<std::uint64_t>(1, (top - corner) / 24);
    for (std::uint64_t v = corner; v < top; v += corner_step) ops.push_back(v);
    num::Xoshiro256 rng{0x3216u + static_cast<unsigned>(n)};
    for (int i = 0; i < 24; ++i) ops.push_back(rng.below(top));
    std::vector<std::uint64_t> a, b;
    for (const std::uint64_t x : ops) {
      for (const std::uint64_t y : ops) {
        a.push_back(x);
        b.push_back(y);
      }
    }
    std::vector<std::uint64_t> out(std::max<std::size_t>(a.size(), top / 4 + 16));
    for (const auto& spec : specs) {
      std::unique_ptr<Multiplier> m;
      try {
        m = mult::make_multiplier(spec, n);
      } catch (const std::invalid_argument&) {
        continue;
      }
      ++checked;
      for (std::size_t i0 = 0, len = 1; i0 < a.size(); i0 += len, len = len % kMaxLen + 1) {
        m->multiply_batch(a.data() + i0, b.data() + i0, out.data() + i0,
                          std::min(len, a.size() - i0));
      }
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(out[i], m->multiply(a[i], b[i]))
            << spec << " at N=" << n << ": batch diverges at a=" << a[i] << " b=" << b[i];
      }
      std::size_t len = 0;
      for (const std::uint64_t x : ops) {
        len = static_cast<std::size_t>(std::min<std::uint64_t>(len % kMaxLen + 1, top));
        for (const std::uint64_t b0 : {std::uint64_t{0}, top / 2 - len / 2, top - len}) {
          m->multiply_row_range(x, b0, out.data(), len);
          for (std::size_t i = 0; i < len; ++i) {
            ASSERT_EQ(out[i], m->multiply(x, b0 + i))
                << spec << " at N=" << n << ": range of " << len << " diverges at a=" << x
                << " b=" << b0 + i;
          }
        }
      }
      if (n < 8) continue;
      const std::uint64_t long_b0 = top / 2 - 3;
      const auto long_len = static_cast<std::size_t>(top / 4 + 6);
      for (const std::uint64_t x : {std::uint64_t{1}, top - 1, corner, ops.back()}) {
        m->multiply_row_range(x, long_b0, out.data(), long_len);
        for (std::size_t i = 0; i < long_len; ++i) {
          ASSERT_EQ(out[i], m->multiply(x, long_b0 + i))
              << spec << " at N=" << n << ": long range diverges at a=" << x
              << " b=" << long_b0 + i;
        }
      }
    }
  }
  EXPECT_GE(checked, 100u);
}

TEST(EvalEngine, MonteCarloIsThreadCountInvariant) {
  // The seed-stability invariant: shard layout depends only on (samples,
  // seed), so the merged metrics are bit-identical for any thread count.
  const auto m = mult::make_multiplier("realm:m=16,t=4", 16);
  err::MonteCarloOptions opts;
  opts.samples = (std::uint64_t{3} << 15) + 7;  // not a shard multiple
  opts.threads = 1;
  const auto r1 = err::monte_carlo(*m, opts);
  opts.threads = 2;
  const auto r2 = err::monte_carlo(*m, opts);
  opts.threads = 0;  // hardware concurrency
  const auto rhw = err::monte_carlo(*m, opts);
  expect_metrics_identical(r1, r2);
  expect_metrics_identical(r1, rhw);
}

TEST(EvalEngine, HistogramRunReturnsMonteCarloMetricsAndSameFill) {
  const auto m = mult::make_multiplier("calm", 16);
  err::MonteCarloOptions opts;
  opts.samples = 1 << 17;
  const auto plain = err::monte_carlo(*m, opts);

  err::Histogram h2{-12.0, 2.0, 140};
  opts.threads = 2;
  const auto r2 = err::monte_carlo(*m, opts, &h2);
  err::Histogram h1{-12.0, 2.0, 140};
  opts.threads = 1;
  const auto r1 = err::monte_carlo(*m, opts, &h1);

  expect_metrics_identical(plain, r2);  // same shard runner, same samples
  expect_metrics_identical(r1, r2);
  EXPECT_EQ(h1.total(), r1.samples);
  EXPECT_EQ(h2.total(), r2.samples);
  for (int b = 0; b < h1.bins(); ++b) EXPECT_EQ(h1.count(b), h2.count(b)) << b;
  EXPECT_EQ(h1.underflow(), h2.underflow());
  EXPECT_EQ(h1.overflow(), h2.overflow());
}

// Run-over-run bench diffs key on the outer span of each Monte-Carlo run,
// so its name must follow whether a histogram is filled.
TEST(EvalEngine, OuterSpanNameFollowsHistogramArgument) {
  obs::set_tracing(false);
  obs::trace_reset();
  obs::set_tracing(true);
  const auto m = mult::make_multiplier("calm", 16);
  err::MonteCarloOptions opts;
  opts.samples = 1 << 12;
  (void)err::monte_carlo(*m, opts);
  const auto plain = obs::span_histograms();
  err::Histogram h{-12.0, 2.0, 14};
  (void)err::monte_carlo(*m, opts, &h);
  const auto both = obs::span_histograms();
  obs::set_tracing(false);
  obs::trace_reset();
  EXPECT_EQ(plain.count("mc/total"), 1u);
  EXPECT_EQ(plain.count("mc/histogram"), 0u);
  ASSERT_EQ(both.count("mc/histogram"), 1u);
  EXPECT_EQ(both.at("mc/total").count, 1u);
  EXPECT_EQ(both.at("mc/histogram").count, 1u);
}

TEST(EvalEngine, ExhaustiveIsThreadCountInvariant) {
  const auto m = mult::make_multiplier("realm:m=4,t=0", 8);
  const auto r1 = err::exhaustive_report(*m, nullptr, {}, {}, 1).metrics;
  const auto r4 = err::exhaustive_report(*m, nullptr, {}, {}, 4).metrics;
  expect_metrics_identical(r1, r4);
  EXPECT_EQ(r1.samples, 255u * 255u);  // zero rows/columns skipped
}

TEST(EvalEngine, AgreesStatisticallyWithScalarReference) {
  // The scalar reference partitions samples differently (shard per thread),
  // so agreement is statistical, not bitwise.
  const auto m = mult::make_multiplier("realm:m=16,t=0", 16);
  err::MonteCarloOptions opts;
  opts.samples = 1 << 18;
  const auto batched = err::monte_carlo(*m, opts);
  const auto scalar = err::monte_carlo_scalar_reference(*m, opts);
  EXPECT_NEAR(batched.bias, scalar.bias, 0.02);
  EXPECT_NEAR(batched.mean, scalar.mean, 0.02);
  EXPECT_NEAR(batched.variance, scalar.variance, 0.05);
}

TEST(EvalEngine, ShardCountDependsOnlyOnBudget) {
  EXPECT_EQ(err::mc_shard_count(0), 1u);
  EXPECT_EQ(err::mc_shard_count(1), 1u);
  EXPECT_EQ(err::mc_shard_count(err::kMcShardSamples), 1u);
  EXPECT_EQ(err::mc_shard_count(err::kMcShardSamples + 1), 2u);
  EXPECT_EQ(err::mc_shard_count(std::uint64_t{1} << 24), 1024u);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  auto& pool = num::ThreadPool::global();
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run(kTasks, 0, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelismOneRunsInline) {
  auto& pool = num::ThreadPool::global();
  const auto self = std::this_thread::get_id();
  std::atomic<bool> all_inline{true};
  pool.run(64, 1, [&](std::size_t) {
    if (std::this_thread::get_id() != self) all_inline = false;
  });
  EXPECT_TRUE(all_inline.load());
}

// Every `int threads` option (MC, exhaustive, JPEG, power,
// equivalence) reaches the pool through this one rule.
TEST(ThreadPool, ThreadsZeroOrNegativeMeansEveryCore) {
  const num::ThreadPool pool{3};
  EXPECT_EQ(pool.parallelism(0), 4u);
  EXPECT_EQ(pool.parallelism(-1), 4u);
  EXPECT_EQ(pool.parallelism(1), 1u);
  EXPECT_EQ(pool.parallelism(7), 7u);
}

TEST(ThreadPool, NestedRunDoesNotDeadlock) {
  auto& pool = num::ThreadPool::global();
  std::atomic<int> inner_total{0};
  pool.run(4, 0, [&](std::size_t) {
    pool.run(8, 0, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  auto& pool = num::ThreadPool::global();
  EXPECT_THROW(
      pool.run(16, 0,
               [&](std::size_t i) {
                 if (i == 7) throw std::runtime_error("boom");
               }),
      std::runtime_error);
}
