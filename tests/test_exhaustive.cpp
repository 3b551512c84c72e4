// Exhaustive characterization engine and the row-hoisted fixed-operand
// kernels.
//
// The load-bearing contracts:
//   * multiply_row_range (and the base multiply_row_batch) are bit-identical
//     to scalar multiply() for every design (exhaustively at 8 bits,
//     randomized at 16);
//   * the tiled engine reproduces exhaustive_generic_reference bit-for-bit
//     (identical fold order and IEEE ops) at any thread count;
//   * the row loop's FMA-corrected quotient equals IEEE division;
//   * peak witnesses are integer-exact, reproduce the metrics peaks and are
//     the first pair in (a, b) scan order among ties;
//   * range validation throws instead of silently sweeping a wrong space;
//   * the campaign codec round-trips reports exactly and a resumed
//     cached_exhaustive serves the stored result bit-for-bit.

#include "realm/error/monte_carlo.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "realm/campaign/cached_eval.hpp"
#include "realm/campaign/result_store.hpp"
#include "realm/campaign/runner.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/rng.hpp"
#include "realm/obs/counters.hpp"

#include "../src/error/row_quotient.hpp"

namespace fs = std::filesystem;
using namespace realm;

namespace {

// A design that overrides only multiply(): the exact product with bit 0
// cleared, so it is not exact.  No library design keeps the base class's
// multiply_batch loop or its multiply_row_range -> multiply_row_batch ->
// multiply_batch chain; this one runs both.
class BaseKernelDesign final : public Multiplier {
 public:
  explicit BaseKernelDesign(int n) : n_{n} {}
  std::uint64_t multiply(std::uint64_t a, std::uint64_t b) const override {
    return (a * b) & ~std::uint64_t{1};
  }
  std::string name() const override { return "a*b with bit 0 cleared"; }
  int width() const override { return n_; }

 private:
  int n_;
};

// The name kernel_specs() and try_make() give BaseKernelDesign; the
// registry does not know it.
constexpr const char* kBaseKernelSpec = "base-kernels";

// Designs with dedicated range kernels (the datapath families, AM1/AM2 and
// the exact reference) plus BaseKernelDesign, whose ranges take the base
// class's broadcast into multiply_batch blocks.  multiply_row_batch takes
// that broadcast for every design.
const std::vector<std::string>& kernel_specs() {
  static const std::vector<std::string> specs = {
      "accurate",      "realm:m=16,t=0", "realm:m=16,t=4", "realm:m=8,t=2",
      "realm:m=4,t=9", "calm",           "mbm:t=4",        "mbm:t=0",
      "drum:k=6",      "ssm:m=10",       "essm:m=8",       "implm",
      "intalp:l=1",    "intalp:l=2",     "alm-soa:m=11",   "am1:nb=9",
      "am2:nb=9",      kBaseKernelSpec,
  };
  return specs;
}

// Some listed specs are unrealizable at narrow widths (e.g. t consuming the
// whole fraction, or an SSM segment wider than the operand) — skip those,
// matching the --exact bench's behavior.
std::unique_ptr<Multiplier> try_make(const std::string& spec, int width) {
  if (spec == kBaseKernelSpec) return std::make_unique<BaseKernelDesign>(width);
  try {
    return mult::make_multiplier(spec, width);
  } catch (const std::exception&) {
    return nullptr;
  }
}

bool metrics_identical(const err::ErrorMetrics& x, const err::ErrorMetrics& y) {
  return x.bias == y.bias && x.mean == y.mean && x.variance == y.variance &&
         x.min == y.min && x.max == y.max && x.samples == y.samples;
}

// Whether this build and CPU run the row loop's FMA quotient.
bool cpu_has_x86_64_v4() {
#ifdef REALM_HAVE_X86_64_V4_CLONE
  return __builtin_cpu_supports("x86-64-v4");
#else
  return false;
#endif
}

/// Fresh path under the system temp dir; removed on destruction.
class TempStorePath {
 public:
  explicit TempStorePath(const std::string& tag) {
    static int counter = 0;
    path_ = (fs::temp_directory_path() /
             ("realm_test_" + tag + "_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter++) + ".store"))
                .string();
    std::remove(path_.c_str());
  }
  ~TempStorePath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const noexcept { return path_; }

 private:
  std::string path_;
};

}  // namespace

// -- row kernels: bit-identity with the scalar datapath ----------------------

TEST(RowKernels, Exhaustive8BitMatchesScalar) {
  constexpr int kWidth = 8;
  constexpr std::uint64_t kSpace = 1u << kWidth;
  std::vector<std::uint64_t> b_all(kSpace), out(kSpace);
  for (std::uint64_t b = 0; b < kSpace; ++b) b_all[b] = b;

  for (const auto& spec : kernel_specs()) {
    SCOPED_TRACE(spec);
    const auto m = try_make(spec, kWidth);
    if (!m) continue;
    for (std::uint64_t a = 0; a < kSpace; ++a) {
      m->multiply_row_batch(a, b_all.data(), out.data(), kSpace);
      for (std::uint64_t b = 0; b < kSpace; ++b) {
        ASSERT_EQ(out[b], m->multiply(a, b)) << "row_batch a=" << a << " b=" << b;
      }
      m->multiply_row_range(a, 0, out.data(), kSpace);
      for (std::uint64_t b = 0; b < kSpace; ++b) {
        ASSERT_EQ(out[b], m->multiply(a, b)) << "row_range a=" << a << " b=" << b;
      }
    }
  }
}

TEST(RowKernels, Randomized16BitMatchesBatchAndScalar) {
  constexpr int kWidth = 16;
  constexpr std::uint64_t kSpace = 1u << kWidth;
  constexpr std::size_t kN = 2048;
  num::Xoshiro256 rng{42};

  std::vector<std::uint64_t> b(kN), a_rep(kN), out_row(kN), out_batch(kN);
  for (const auto& spec : kernel_specs()) {
    SCOPED_TRACE(spec);
    const auto m = try_make(spec, kWidth);
    ASSERT_NE(m, nullptr) << "every listed spec must be realizable at 16 bits";
    for (int rep = 0; rep < 8; ++rep) {
      const std::uint64_t a = rng.below(kSpace);
      for (std::size_t i = 0; i < kN; ++i) {
        b[i] = rng.below(kSpace);
        a_rep[i] = a;
      }
      m->multiply_row_batch(a, b.data(), out_row.data(), kN);
      m->multiply_batch(a_rep.data(), b.data(), out_batch.data(), kN);
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(out_row[i], out_batch[i]) << "a=" << a << " b=" << b[i];
        ASSERT_EQ(out_row[i], m->multiply(a, b[i])) << "a=" << a << " b=" << b[i];
      }
      // Contiguous ranges with a random start exercise every power-of-two
      // segment boundary crossing in the range kernels.
      const std::uint64_t b0 = rng.below(kSpace - kN);
      m->multiply_row_range(a, b0, out_row.data(), kN);
      for (std::size_t i = 0; i < kN; ++i) {
        ASSERT_EQ(out_row[i], m->multiply(a, b0 + i)) << "a=" << a << " b=" << (b0 + i);
      }
    }
  }
}

TEST(RowKernels, RangeCoversFullSpaceEdges) {
  // Degenerate ranges: n = 0 and n = 1 at both ends of the space, plus a
  // range starting at 0 (the zero-column special case).
  for (const auto& spec : kernel_specs()) {
    SCOPED_TRACE(spec);
    const auto m = try_make(spec, 8);
    if (!m) continue;
    std::uint64_t out[4] = {~0ull, ~0ull, ~0ull, ~0ull};
    m->multiply_row_range(7, 0, out, 0);  // n = 0: no write
    EXPECT_EQ(out[0], ~0ull);
    m->multiply_row_range(7, 0, out, 1);  // only the zero column
    EXPECT_EQ(out[0], 0u);
    m->multiply_row_range(7, 255, out, 1);  // top of the space
    EXPECT_EQ(out[0], m->multiply(7, 255));
    m->multiply_row_range(0, 5, out, 3);  // zero row
    EXPECT_EQ(out[0], 0u);
    EXPECT_EQ(out[1], 0u);
    EXPECT_EQ(out[2], 0u);
  }
}

TEST(RowKernels, FallbackPathCountsForwardedBatches) {
  // multiply_row_batch is the base class's broadcast into multiply_batch for
  // every design, and so is multiply_row_range for a design without a range
  // kernel (BaseKernelDesign); each forwarded block is tallied.
  std::vector<std::uint64_t> b(100), out(100);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = i;
  for (const char* spec : {kBaseKernelSpec, "realm:m=16,t=0", "am1:nb=9", "accurate"}) {
    obs::counters_reset();
    const auto m = try_make(spec, 16);
    m->multiply_row_batch(3, b.data(), out.data(), b.size());
    EXPECT_EQ(obs::counter_value(obs::Counter::kRowFallbackBatches), 1u) << spec;
  }
  obs::counters_reset();
  BaseKernelDesign{16}.multiply_row_range(3, 0, out.data(), out.size());
  EXPECT_EQ(obs::counter_value(obs::Counter::kRowFallbackBatches), 1u);
  // Every Table I design and the exact reference has a range kernel, which
  // never touches the fallback.
  std::vector<std::string> specs = mult::table1_specs();
  specs.emplace_back("accurate");
  obs::counters_reset();
  for (const auto& spec : specs) {
    mult::make_multiplier(spec, 16)->multiply_row_range(3, 0, out.data(), out.size());
  }
  EXPECT_EQ(obs::counter_value(obs::Counter::kRowFallbackBatches), 0u);
}

// -- tiled engine: bit-identity, determinism, witnesses ----------------------

TEST(ExhaustiveEngine, TiledMatchesGenericReferenceBitForBit) {
  // The generic reference reduces every block with the blended loop and
  // plain division, so it is the oracle for the tiled engine's row loop
  // (no blends, and the FMA quotient where the CPU has x86-64-v4).  ALM-MAA
  // m=9 and ALM-SOA m=6 are here because their variance is the first to
  // move by an ulp when two loops accumulate Σe² differently.  The 16-bit
  // bands cover a tile starting at column 0 (zero row and column) and one
  // with no zero pair at all; the histogram run stores e[] and must not
  // change the metrics either.
  std::vector<std::string> specs = kernel_specs();
  specs.insert(specs.end(), {"alm-maa:m=9", "alm-soa:m=6"});
  for (int threads : {1, 2}) {
    for (const auto& spec : specs) {
      SCOPED_TRACE(spec + " threads=" + std::to_string(threads));
      if (const auto m = try_make(spec, 8)) {
        const auto ref = err::exhaustive_generic_reference(*m, {}, {}, threads);
        EXPECT_TRUE(metrics_identical(
            ref, err::exhaustive_report(*m, nullptr, {}, {}, threads).metrics));
        err::Histogram hist{-50.0, 50.0, 40};
        EXPECT_TRUE(metrics_identical(
            ref, err::exhaustive_report(*m, &hist, {}, {}, threads).metrics));
      }
      const auto m16 = try_make(spec, 16);
      ASSERT_NE(m16, nullptr);
      for (const auto& [lo, hi] : {std::pair<std::uint64_t, std::uint64_t>{0, 1500},
                                   {40000, 41500}}) {
        SCOPED_TRACE("band " + std::to_string(lo) + ".." + std::to_string(hi));
        EXPECT_TRUE(metrics_identical(
            err::exhaustive_generic_reference(*m16, lo, hi, threads),
            err::exhaustive_report(*m16, nullptr, lo, hi, threads).metrics));
      }
    }
    // The widest operands the row loop takes: products just below 2^52, so
    // `exact` steps by 8a near the top of the exact-integer range and the
    // quotient sees numerators of up to 2^47.  On this band MBM only
    // overestimates and DRUM only underestimates, so n = p - x takes both
    // signs.
    constexpr std::uint64_t kTop = (std::uint64_t{1} << 26) - 1;
    for (const auto& [spec, sign] : {std::pair<const char*, int>{"realm:m=16,t=0", 0},
                                     {"mbm:t=0", 1}, {"drum:k=6", -1}}) {
      SCOPED_TRACE(std::string(spec) + " width 26, threads=" + std::to_string(threads));
      const auto m26 = mult::make_multiplier(spec, 26);
      const auto ref = err::exhaustive_generic_reference(*m26, kTop - 300, kTop, threads);
      EXPECT_TRUE(metrics_identical(
          ref, err::exhaustive_report(*m26, nullptr, kTop - 300, kTop, threads).metrics));
      if (sign > 0) {
        EXPECT_GT(ref.min, 0.0);
      } else if (sign < 0) {
        EXPECT_LT(ref.max, 0.0);
      }
    }
  }
}

TEST(ExhaustiveEngine, WideOperandsTakeTheGeneralLoop) {
  // Products of 27-bit operands reach 2^54, past the exact-integer range the
  // row loop and the FMA quotient need, so such designs keep the blended
  // loop and divide.
  EXPECT_EQ(err::detail::row_loop(27), err::detail::RowLoop::kBlended);
  EXPECT_EQ(err::detail::row_loop(32), err::detail::RowLoop::kBlended);
  EXPECT_EQ(err::detail::row_loop(26), cpu_has_x86_64_v4()
                                           ? err::detail::RowLoop::kFmaReciprocal
                                           : err::detail::RowLoop::kBlended);
  const auto m = mult::make_multiplier("realm:m=16,t=0", 27);
  const std::uint64_t hi = (std::uint64_t{1} << 27) - 1;
  EXPECT_TRUE(
      metrics_identical(err::exhaustive_generic_reference(*m, hi - 300, hi),
                        err::exhaustive_report(*m, nullptr, hi - 300, hi).metrics));
}

TEST(ExhaustiveEngine, ThreadCountNeverChangesResults) {
  const auto m = mult::make_multiplier("realm:m=8,t=2", 8);
  const auto t1 = err::exhaustive_report(*m, nullptr, {}, {}, 1);
  for (int threads : {2, 3, 8}) {
    const auto tn = err::exhaustive_report(*m, nullptr, {}, {}, threads);
    EXPECT_TRUE(metrics_identical(t1.metrics, tn.metrics)) << threads << " threads";
    EXPECT_EQ(t1.min_peak.a, tn.min_peak.a);
    EXPECT_EQ(t1.min_peak.b, tn.min_peak.b);
    EXPECT_EQ(t1.max_peak.a, tn.max_peak.a);
    EXPECT_EQ(t1.max_peak.b, tn.max_peak.b);
  }
}

TEST(ExhaustiveEngine, SubrangeMatchesGenericReference) {
  const auto m = mult::make_multiplier("realm:m=16,t=0", 16);
  const auto ref = err::exhaustive_generic_reference(*m, 100, 900);
  const auto rep = err::exhaustive_report(*m, nullptr, 100, 900);
  EXPECT_TRUE(metrics_identical(ref, rep.metrics));
  EXPECT_EQ(rep.pairs, 801u * 801u);
}

TEST(ExhaustiveEngine, ScalarReferenceAgreesStatistically) {
  // Different summation order — numerically close, not bit-identical.
  const auto m = mult::make_multiplier("calm", 8);
  const auto scalar = err::exhaustive_scalar_reference(*m);
  const auto tiled = err::exhaustive_report(*m).metrics;
  EXPECT_NEAR(scalar.bias, tiled.bias, 1e-9);
  EXPECT_NEAR(scalar.mean, tiled.mean, 1e-9);
  EXPECT_NEAR(scalar.variance, tiled.variance, 1e-7);
  EXPECT_EQ(scalar.min, tiled.min);  // peaks are single-pair values: exact
  EXPECT_EQ(scalar.max, tiled.max);
  EXPECT_EQ(scalar.samples, tiled.samples);
}

TEST(ExhaustiveEngine, PeakWitnessesAreIntegerExact) {
  const auto m = mult::make_multiplier("realm:m=16,t=0", 10);
  const auto rep = err::exhaustive_report(*m);
  ASSERT_TRUE(rep.min_peak.valid);
  ASSERT_TRUE(rep.max_peak.valid);
  for (const auto* w : {&rep.min_peak, &rep.max_peak}) {
    EXPECT_EQ(w->product, m->multiply(w->a, w->b));
    const double exact = static_cast<double>(w->a) * static_cast<double>(w->b);
    ASSERT_NE(exact, 0.0);
    const double err_pct = 100.0 * (static_cast<double>(w->product) - exact) / exact;
    EXPECT_EQ(err_pct, w->error);
  }
  EXPECT_EQ(rep.min_peak.error, rep.metrics.min);
  EXPECT_EQ(rep.max_peak.error, rep.metrics.max);
  EXPECT_EQ(rep.pairs, std::uint64_t{1} << 20);
}

TEST(ExhaustiveEngine, PeakWitnessesAreFirstInScanOrder) {
  // cALM at 8 bits ties many pairs at both peaks, so the witnesses pin the
  // tie rule: the first pair in row-major (a, b) scan order, at any thread
  // count.  The oracle is a scalar scan with strict comparisons.
  const auto m = mult::make_multiplier("calm", 8);
  double min_e = 0.0, max_e = 0.0;
  std::uint64_t min_a = 0, min_b = 0, max_a = 0, max_b = 0;
  bool seen = false;
  std::vector<double> errors;
  for (std::uint64_t a = 1; a < 256; ++a) {
    for (std::uint64_t b = 1; b < 256; ++b) {
      const double exact = static_cast<double>(a) * static_cast<double>(b);
      const double e = (static_cast<double>(m->multiply(a, b)) - exact) / exact;
      errors.push_back(e);
      if (!seen || e < min_e) {
        min_e = e;
        min_a = a;
        min_b = b;
      }
      if (!seen || e > max_e) {
        max_e = e;
        max_a = a;
        max_b = b;
      }
      seen = true;
    }
  }
  EXPECT_EQ(std::count(errors.begin(), errors.end(), min_e), 49);
  EXPECT_EQ(std::count(errors.begin(), errors.end(), max_e), 4016);

  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const auto rep = err::exhaustive_report(*m, nullptr, {}, {}, threads);
    ASSERT_TRUE(rep.min_peak.valid);
    EXPECT_EQ(rep.min_peak.a, min_a);
    EXPECT_EQ(rep.min_peak.b, min_b);
    EXPECT_EQ(rep.min_peak.error, 100.0 * min_e);
    EXPECT_EQ(rep.max_peak.a, max_a);
    EXPECT_EQ(rep.max_peak.b, max_b);
    EXPECT_EQ(rep.max_peak.error, 100.0 * max_e);
  }
}

TEST(ExhaustiveEngine, AccurateDesignHasZeroErrorEverywhere) {
  const auto m = mult::make_multiplier("accurate", 8);
  const auto rep = err::exhaustive_report(*m);
  EXPECT_EQ(rep.metrics.min, 0.0);
  EXPECT_EQ(rep.metrics.max, 0.0);
  EXPECT_EQ(rep.metrics.bias, 0.0);
  EXPECT_EQ(rep.metrics.mean, 0.0);
}

TEST(ExhaustiveEngine, HistogramCountsEveryValidPair) {
  const auto m = mult::make_multiplier("calm", 8);
  err::Histogram hist{-15.0, 15.0, 64};
  const auto rep = err::exhaustive_report(*m, &hist);
  EXPECT_EQ(hist.total(), rep.metrics.samples);
  // Mitchell's error is never positive: everything at or below zero.
  EXPECT_EQ(hist.overflow(), 0u);
}

TEST(ExhaustiveEngine, HistogramIsThreadCountInvariant) {
  const auto m = mult::make_multiplier("realm:m=8,t=0", 8);
  err::Histogram h1{-12.0, 12.0, 48}, h4{-12.0, 12.0, 48};
  (void)err::exhaustive_report(*m, &h1, {}, {}, 1);
  (void)err::exhaustive_report(*m, &h4, {}, {}, 4);
  for (int bin = 0; bin < h1.bins(); ++bin) EXPECT_EQ(h1.count(bin), h4.count(bin));
  EXPECT_EQ(h1.underflow(), h4.underflow());
  EXPECT_EQ(h1.overflow(), h4.overflow());
}

TEST(ExhaustiveEngine, ValidationRejectsBadRanges) {
  const auto m = mult::make_multiplier("realm:m=16,t=0", 8);
  EXPECT_THROW((void)err::exhaustive_report(*m, nullptr, 10, 5).metrics,
               std::invalid_argument);
  EXPECT_THROW((void)err::exhaustive_report(*m, nullptr, {}, 256).metrics,
               std::invalid_argument);
  EXPECT_THROW((void)err::exhaustive_report(*m, nullptr, 10, 5), std::invalid_argument);
  EXPECT_THROW((void)err::exhaustive_report(*m, nullptr, 0, 1u << 20),
               std::invalid_argument);
  // The boundary itself is fine.
  EXPECT_NO_THROW((void)err::exhaustive_report(*m, nullptr, 255, 255).metrics);
}

TEST(ExhaustiveEngine, MonteCarloStaysInsideExactEnvelope) {
  // MC draws from the same space, so its peaks can never escape the exact
  // ones, and bias/mean converge to the exact values.
  const auto m = mult::make_multiplier("realm:m=16,t=0", 10);
  const auto exact = err::exhaustive_report(*m);
  err::MonteCarloOptions opts;
  opts.samples = std::uint64_t{1} << 18;
  const auto mc = err::monte_carlo(*m, opts);
  EXPECT_GE(mc.min, exact.metrics.min);
  EXPECT_LE(mc.max, exact.metrics.max);
  EXPECT_NEAR(mc.bias, exact.metrics.bias, 0.05);
  EXPECT_NEAR(mc.mean, exact.metrics.mean, 0.05);
}

// -- row quotient: the FMA-corrected reciprocal equals IEEE division --------

#ifdef REALM_HAVE_X86_64_V4_CLONE
namespace {

// q[i] = fma_quotient(n[i], d[i]) eight lanes at a time; count % 8 == 0.
[[gnu::target("arch=x86-64-v4")]] void fma_quotients(const double* n, const double* d,
                                                     double* q, std::size_t count) {
  for (std::size_t i = 0; i < count; i += 8) {
    __m512d qv;
    err::detail::fma_quotient(_mm512_loadu_pd(n + i), _mm512_loadu_pd(d + i), qv);
    _mm512_storeu_pd(q + i, qv);
  }
}

// Runs batches through the FMA quotient and counts lanes whose bits differ
// from IEEE n / d; the first mismatch is reported.
class QuotientChecker {
 public:
  void add(double n, double d) {
    n_[size_] = n;
    d_[size_] = d;
    if (++size_ == kBatch) flush();
  }
  void flush() {
    while (size_ % 8 != 0) add(1.0, 1.0);
    fma_quotients(n_.data(), d_.data(), q_.data(), size_);
    for (std::size_t i = 0; i < size_; ++i) {
      const double want = n_[i] / d_[i];
      if (std::bit_cast<std::uint64_t>(q_[i]) != std::bit_cast<std::uint64_t>(want) &&
          mismatches_++ == 0) {
        ADD_FAILURE() << std::hexfloat << n_[i] << " / " << d_[i] << ": fma " << q_[i]
                      << ", IEEE " << want;
      }
    }
    checked_ += size_;
    size_ = 0;
  }
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
  [[nodiscard]] std::uint64_t checked() const { return checked_; }

 private:
  static constexpr std::size_t kBatch = 1 << 14;
  std::vector<double> n_ = std::vector<double>(kBatch);
  std::vector<double> d_ = std::vector<double>(kBatch);
  std::vector<double> q_ = std::vector<double>(kBatch);
  std::size_t size_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t checked_ = 0;
};

}  // namespace

TEST(RowQuotient, MatchesDivisionOnEveryProductOfElevenBitOperands) {
  if (!cpu_has_x86_64_v4()) GTEST_SKIP() << "CPU lacks x86-64-v4";
  // Every divisor a·b with 1 <= a, b <= 2^11, against the numerators at and
  // around the integers the reduction sees: 0, ±1, ±d and d ± 2^k.
  std::vector<double> pow2(34);
  for (std::size_t k = 0; k < pow2.size(); ++k) {
    pow2[k] = std::ldexp(1.0, static_cast<int>(k));
  }
  QuotientChecker check;
  for (std::uint64_t a = 1; a <= 2048; ++a) {
    for (std::uint64_t b = 1; b <= 2048; ++b) {
      const auto d = static_cast<double>(a * b);
      for (double n : {0.0, 1.0, -1.0, d, -d}) check.add(n, d);
      for (const double p : pow2) {
        check.add(d + p, d);
        check.add(d - p, d);
      }
    }
  }
  check.flush();
  EXPECT_EQ(check.mismatches(), 0u) << "of " << check.checked();
  EXPECT_GE(check.checked(), (std::uint64_t{1} << 22) * 73);
}

TEST(RowQuotient, MatchesDivisionOnSeededRandomPairs) {
  if (!cpu_has_x86_64_v4()) GTEST_SKIP() << "CPU lacks x86-64-v4";
  // 2^26 pairs: d an integer in [1, 2^52) and |n| < 2^52, both with a
  // uniformly drawn bit length so small and large magnitudes are equally
  // covered.  n is never -0, which the quotient turns into +0; neither is
  // the reduction's n = p - x (x - x is +0 when rounding to nearest).
  num::Xoshiro256 rng{0x71e1d5eedULL};
  QuotientChecker check;
  for (std::uint64_t i = 0; i < (std::uint64_t{1} << 26); ++i) {
    const std::uint64_t d_bits = 1 + rng.below(52);  // d in [2^(bits-1), 2^bits)
    const std::uint64_t d = (std::uint64_t{1} << (d_bits - 1)) |
                            rng.below(std::uint64_t{1} << (d_bits - 1));
    const auto n = static_cast<double>(rng.below(std::uint64_t{1} << rng.below(53)));
    check.add((i & 1) != 0 && n != 0.0 ? -n : n, static_cast<double>(d));
  }
  check.flush();
  EXPECT_EQ(check.mismatches(), 0u) << "of " << check.checked();
}
#endif

// -- campaign integration ----------------------------------------------------

TEST(ExhaustiveCampaign, ReportCodecRoundTripsExactly) {
  const auto m = mult::make_multiplier("realm:m=16,t=0", 10);
  const auto rep = err::exhaustive_report(*m);
  const auto back = campaign::parse_exhaustive_report(
      campaign::serialize_exhaustive_report(rep));
  EXPECT_TRUE(metrics_identical(rep.metrics, back.metrics));
  EXPECT_EQ(rep.pairs, back.pairs);
  for (const auto& [orig, parsed] :
       {std::pair{&rep.min_peak, &back.min_peak}, {&rep.max_peak, &back.max_peak}}) {
    EXPECT_EQ(orig->a, parsed->a);
    EXPECT_EQ(orig->b, parsed->b);
    EXPECT_EQ(orig->product, parsed->product);
    EXPECT_EQ(orig->error, parsed->error);  // hex-float payload: bit-exact
    EXPECT_EQ(orig->valid, parsed->valid);
  }
}

TEST(ExhaustiveCampaign, CodecRejectsGarbage) {
  EXPECT_THROW((void)campaign::parse_exhaustive_report(""), std::exception);
  EXPECT_THROW((void)campaign::parse_exhaustive_report("bias=zzz"), std::exception);
}

TEST(ExhaustiveCampaign, KeyIsCanonicalAndThreadFree) {
  const auto k1 = campaign::exhaustive_key("realm:m=16,t=0", 16, 0, 65535);
  EXPECT_EQ(k1, campaign::exhaustive_key("realm:m=16,t=0", 16, 0, 65535));
  EXPECT_NE(k1, campaign::exhaustive_key("realm:m=16,t=0", 16, 0, 1023));
  EXPECT_NE(k1, campaign::exhaustive_key("realm:m=8,t=0", 16, 0, 65535));
  EXPECT_NE(k1, campaign::exhaustive_key("realm:m=16,t=0", 10, 0, 65535));
  EXPECT_NE(k1.find(campaign::kExhaustiveEngineVersion), std::string::npos);
}

TEST(ExhaustiveCampaign, ResumeServesStoredResultBitForBit) {
  TempStorePath store_path{"exhaustive"};
  const auto direct = campaign::cached_exhaustive(nullptr, "realm:m=16,t=0", 8, 0, 255);

  err::ExhaustiveReport first;
  {
    campaign::ResultStore store{store_path.str()};
    campaign::CampaignRunner runner{&store, false};
    first = campaign::cached_exhaustive(&runner, "realm:m=16,t=0", 8, 0, 255);
    EXPECT_EQ(runner.units_computed(), 1u);
    EXPECT_EQ(runner.units_resumed(), 0u);
  }
  EXPECT_TRUE(metrics_identical(direct.metrics, first.metrics));

  // Reopen with --resume semantics: the unit must replay from the journal
  // (no recomputation) and decode to the identical report.
  campaign::ResultStore store{store_path.str()};
  campaign::CampaignRunner runner{&store, true};
  const auto resumed = campaign::cached_exhaustive(&runner, "realm:m=16,t=0", 8,
                                                   0, 255);
  EXPECT_EQ(runner.units_resumed(), 1u);
  EXPECT_EQ(runner.units_computed(), 0u);
  EXPECT_TRUE(metrics_identical(first.metrics, resumed.metrics));
  EXPECT_EQ(first.min_peak.a, resumed.min_peak.a);
  EXPECT_EQ(first.min_peak.b, resumed.min_peak.b);
  EXPECT_EQ(first.min_peak.product, resumed.min_peak.product);
  EXPECT_EQ(first.min_peak.error, resumed.min_peak.error);
  EXPECT_EQ(first.max_peak.a, resumed.max_peak.a);
  EXPECT_EQ(first.max_peak.error, resumed.max_peak.error);
  EXPECT_EQ(first.pairs, resumed.pairs);
}
