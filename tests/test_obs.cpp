// Telemetry subsystem tests: span recording/nesting/interleaving, counter
// atomicity under the thread pool, the pool's inline-contention counter,
// log2 histogram bucket/percentile exactness, span-histogram merging,
// the queue-wait value histogram, the utilization sampler, Chrome-trace
// and MetricsSink JSON well-formedness, and the disabled-mode
// zero-overhead contract (no events recorded at all).
//
// All obs state is process-global, so every test starts from
// trace_reset()/counters_reset()/value_hist_reset()/timeline_reset() and
// leaves tracing disabled and the sampler stopped on exit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "realm/numeric/thread_pool.hpp"
#include "realm/obs/counters.hpp"
#include "realm/obs/histogram.hpp"
#include "realm/obs/metrics_sink.hpp"
#include "realm/obs/sampler.hpp"
#include "realm/obs/trace.hpp"

namespace {

using realm::num::ThreadPool;
namespace obs = realm::obs;

// Minimal strict JSON validator (objects/arrays/strings/numbers/literals).
// The exporters hand-assemble their documents, so the tests parse them back
// rather than trusting the assembly; no third-party parser is available in
// this container by design.
class MiniJson {
 public:
  explicit MiniJson(const std::string& s) : s_{s} {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          if (pos_ + 4 >= s_.size()) return false;
          pos_ += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character: the escaper missed it
      }
      ++pos_;
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(s_[pos_ - 1]));
  }

  bool literal(const char* word) {
    const std::string w{word};
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// RAII guard: every test runs against clean global state and cannot leak an
// enabled tracing flag into later tests (or vice versa).
struct ObsSandbox {
  ObsSandbox() { clean(); }
  ~ObsSandbox() { clean(); }

  static void clean() {
    obs::Sampler::stop();
    obs::set_tracing(false);
    obs::trace_reset();
    obs::counters_reset();
    obs::value_hist_reset();
    obs::timeline_reset();
  }
};

TEST(Trace, DisabledModeRecordsNothing) {
  ObsSandbox sandbox;
  ASSERT_FALSE(obs::tracing_enabled());
  for (int i = 0; i < 100; ++i) {
    REALM_TRACE_SCOPE("test/disabled");
  }
  EXPECT_EQ(obs::trace_events_recorded(), 0u);
  EXPECT_TRUE(obs::span_histograms().empty());
}

TEST(Trace, SpanInFlightWhenDisabledStillCompletes) {
  ObsSandbox sandbox;
  obs::set_tracing(true);
  {
    REALM_TRACE_SCOPE("test/inflight");
    obs::set_tracing(false);  // disable mid-span: no half-open scope allowed
  }
  EXPECT_EQ(obs::span_histograms()["test/inflight"].count, 1u);
}

TEST(Trace, SpanNestingAggregates) {
  ObsSandbox sandbox;
  obs::set_tracing(true);
  {
    REALM_TRACE_SCOPE("test/outer");
    {
      REALM_TRACE_SCOPE("test/inner");
    }
    {
      REALM_TRACE_SCOPE("test/inner");
    }
  }
  const auto agg = obs::span_histograms();
  ASSERT_EQ(agg.count("test/outer"), 1u);
  ASSERT_EQ(agg.count("test/inner"), 1u);
  EXPECT_EQ(agg.at("test/outer").count, 1u);
  EXPECT_EQ(agg.at("test/inner").count, 2u);
  // Inner scopes are dynamically enclosed by the outer one, so on a
  // monotonic clock their summed duration cannot exceed the outer span's.
  EXPECT_LE(agg.at("test/inner").total, agg.at("test/outer").total);
  EXPECT_LE(agg.at("test/inner").min, agg.at("test/inner").max);
  EXPECT_EQ(obs::trace_events_recorded(), 3u);
  EXPECT_EQ(obs::trace_events_dropped(), 0u);
}

TEST(Trace, ThreadInterleaving) {
  ObsSandbox sandbox;
  obs::set_tracing(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPer = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPer; ++i) {
        REALM_TRACE_SCOPE("test/interleave");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(obs::span_histograms().at("test/interleave").count,
            static_cast<std::uint64_t>(kThreads) * kSpansPer);
}

TEST(Trace, RingWrapDropsOldestAndCounts) {
  ObsSandbox sandbox;
  obs::set_tracing(true);
  // One thread, more spans than a ring holds (capacity 2^15): the total
  // recorded tally keeps counting while the exportable window stays bounded.
  constexpr std::size_t kSpans = (std::size_t{1} << 15) + 1000;
  for (std::size_t i = 0; i < kSpans; ++i) {
    REALM_TRACE_SCOPE("test/wrap");
  }
  EXPECT_EQ(obs::trace_events_recorded(), kSpans);
  EXPECT_EQ(obs::trace_events_dropped(), 1000u);
  EXPECT_EQ(obs::trace_events_recorded() - obs::trace_events_dropped(),
            std::size_t{1} << 15);
  EXPECT_EQ(obs::span_histograms().at("test/wrap").count, kSpans);
}

TEST(Trace, ChromeJsonWellFormed) {
  ObsSandbox sandbox;
  obs::set_tracing(true);
  {
    REALM_TRACE_SCOPE("test/json");
  }
  std::thread worker{[] {
    REALM_TRACE_SCOPE("test/json");
  }};
  worker.join();

  const std::string json = obs::chrome_trace_json();
  MiniJson parser{json};
  EXPECT_TRUE(parser.valid()) << json;
  // Structure spot-checks on top of syntactic validity: complete events with
  // the fields chrome://tracing requires, and named thread tracks.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test/json\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("realm-main"), std::string::npos);
}

TEST(Counters, AtomicityUnderThreadPool) {
  ObsSandbox sandbox;
  ThreadPool pool{3};
  constexpr std::size_t kTasks = 1000;
  pool.run(kTasks, 0, [](std::size_t) {
    obs::counter_add(obs::Counter::kMcSamples, 1);
  });
  EXPECT_EQ(obs::counter_value(obs::Counter::kMcSamples), kTasks);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPoolTasksExecuted), kTasks);
  EXPECT_GE(obs::counter_value(obs::Counter::kPoolRegions), 1u);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPoolTasksFailed), 0u);
  EXPECT_EQ(obs::gauge_value(obs::Gauge::kPoolWorkers), 3u);
}

TEST(Counters, InlineFallbackIsCounted) {
  ObsSandbox sandbox;
  ThreadPool pool{2};
  std::atomic<bool> occupied{false};
  std::atomic<bool> release{false};

  // Occupy the pool's region lock from another thread, then issue a second
  // parallel run(): it must degrade to inline execution and say so.
  std::thread holder{[&] {
    pool.run(3, 0, [&](std::size_t) {
      occupied.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  }};
  while (!occupied.load()) std::this_thread::yield();

  constexpr std::size_t kContended = 5;
  std::atomic<std::size_t> ran{0};
  pool.run(kContended, 0, [&](std::size_t) { ran.fetch_add(1); });
  release.store(true);
  holder.join();

  EXPECT_EQ(ran.load(), kContended);  // fallback still runs every task
  EXPECT_EQ(obs::counter_value(obs::Counter::kPoolTasksInline), kContended);
  EXPECT_EQ(obs::counter_value(obs::Counter::kPoolTasksExecuted), kContended + 3);
}

TEST(Counters, ResetZeroesCountersButKeepsGauges) {
  ObsSandbox sandbox;
  obs::counter_add(obs::Counter::kGateEvals, 42);
  obs::gauge_set(obs::Gauge::kPoolWorkers, 7);
  obs::counters_reset();
  EXPECT_EQ(obs::counter_value(obs::Counter::kGateEvals), 0u);
  EXPECT_EQ(obs::gauge_value(obs::Gauge::kPoolWorkers), 7u);
}

TEST(Counters, EveryNameIsUniqueAndStable) {
  std::vector<std::string> names;
  for (unsigned c = 0; c < obs::kCounterCount; ++c) {
    names.emplace_back(obs::counter_name(static_cast<obs::Counter>(c)));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]);
    }
  }
}

TEST(MetricsSink, JsonQuoteEscapes) {
  EXPECT_EQ(obs::json_quote("plain"), "\"plain\"");
  EXPECT_EQ(obs::json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(obs::json_quote("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
  EXPECT_EQ(obs::json_quote(std::string{"\x01", 1}), "\"\\u0001\"");
}

TEST(MetricsSink, DocumentIsSchemaStableAndParses) {
  ObsSandbox sandbox;
  obs::set_tracing(true);
  {
    REALM_TRACE_SCOPE("test/sink");
  }
  obs::counter_add(obs::Counter::kLutCacheHits, 3);

  obs::MetricsSink sink{"unit_test"};
  sink.meta("config", "realm:m=16,t=0");
  sink.meta("threads", 4);
  sink.metric("speedup", 5.25);
  sink.metric("bit_identical", true);
  sink.metric("pairs", std::uint64_t{1} << 33);

  const std::string json = sink.to_json();
  MiniJson parser{json};
  EXPECT_TRUE(parser.valid()) << json;
  EXPECT_NE(json.find("\"schema\": \"realm-bench-v3\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"generated_utc\""), std::string::npos);
  EXPECT_NE(json.find("\"speedup\": 5.25"), std::string::npos);
  EXPECT_NE(json.find("\"bit_identical\": true"), std::string::npos);
  EXPECT_NE(json.find("\"pairs\": 8589934592"), std::string::npos);
  // The counters section always carries the full catalog, hit or not.
  for (unsigned c = 0; c < obs::kCounterCount; ++c) {
    EXPECT_NE(json.find(obs::json_quote(obs::counter_name(static_cast<obs::Counter>(c)))),
              std::string::npos);
  }
  EXPECT_NE(json.find("\"lut_cache_hits\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"pool_workers\""), std::string::npos);
  // v3 sections: the run stamp, span percentiles + bucket arrays, the full
  // value-histogram catalog, and a (possibly empty) timeline.
  EXPECT_NE(json.find("\"run\": {"), std::string::npos);
  EXPECT_NE(json.find("\"host\": "), std::string::npos);
  EXPECT_NE(json.find("\"commit\": "), std::string::npos);
  EXPECT_NE(json.find("\"hw_threads\": "), std::string::npos);
  EXPECT_NE(json.find("\"test/sink\": {\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p50_us\": "), std::string::npos);
  EXPECT_NE(json.find("\"p95_us\": "), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\": "), std::string::npos);
  EXPECT_NE(json.find("\"buckets\": ["), std::string::npos);
  EXPECT_NE(json.find("\"value_histograms\": {"), std::string::npos);
  for (unsigned h = 0; h < obs::kValueHistCount; ++h) {
    EXPECT_NE(
        json.find(obs::json_quote(obs::value_hist_name(static_cast<obs::ValueHist>(h)))),
        std::string::npos);
  }
  EXPECT_NE(json.find("\"timeline\": ["), std::string::npos);
}

TEST(Histogram, BucketBoundariesAreExact) {
  // bucket 0 = {0}; bucket i = [2^(i-1), 2^i); bucket 63 open-ended.
  EXPECT_EQ(obs::histogram_bucket(0), 0u);
  EXPECT_EQ(obs::histogram_bucket(1), 1u);
  for (unsigned k = 1; k < 63; ++k) {
    const std::uint64_t lo = std::uint64_t{1} << (k - 1);
    const std::uint64_t hi = (std::uint64_t{1} << k) - 1;
    EXPECT_EQ(obs::histogram_bucket(lo), k) << "lower edge of bucket " << k;
    EXPECT_EQ(obs::histogram_bucket(hi), k) << "upper edge of bucket " << k;
    EXPECT_EQ(obs::histogram_bucket_lower(k), lo);
    EXPECT_EQ(obs::histogram_bucket_upper(k), hi);
  }
  // The last bucket absorbs everything from 2^62 upward.
  EXPECT_EQ(obs::histogram_bucket(std::uint64_t{1} << 62), 63u);
  EXPECT_EQ(obs::histogram_bucket(~std::uint64_t{0}), 63u);
  EXPECT_EQ(obs::histogram_bucket_upper(63), ~std::uint64_t{0});
  EXPECT_EQ(obs::histogram_bucket_lower(0), 0u);
  EXPECT_EQ(obs::histogram_bucket_upper(0), 0u);
}

TEST(Histogram, PercentileBoundsAgainstSortedReference) {
  // The documented contract: for the nearest-rank k-th smallest value v
  // (k = ceil(q*count)), the estimate satisfies v <= est < 2*v (v > 0),
  // and est is additionally clamped to the observed max.
  std::mt19937_64 rng{20260808};
  for (int trial = 0; trial < 20; ++trial) {
    obs::HistogramSnapshot h;
    std::vector<std::uint64_t> samples;
    const int n = 1 + static_cast<int>(rng() % 2000);
    for (int i = 0; i < n; ++i) {
      // Mix magnitudes so several buckets are hit, including zeros.
      const unsigned shift = static_cast<unsigned>(rng() % 40);
      const std::uint64_t v = rng() >> (63 - shift % 63);
      samples.push_back(v);
      h.record(v);
    }
    std::sort(samples.begin(), samples.end());
    for (const double q : {0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0}) {
      const std::size_t k = static_cast<std::size_t>(
          std::max<double>(1.0, std::ceil(q * static_cast<double>(samples.size()))));
      const std::uint64_t v_true = samples[k - 1];
      const std::uint64_t est = h.percentile(q);
      EXPECT_GE(est, v_true) << "q=" << q << " n=" << n;
      if (v_true > 0) {
        EXPECT_LE(est, 2 * v_true - 1) << "q=" << q << " n=" << n;
      } else {
        // The k-th smallest is 0, so it falls in bucket 0, whose inclusive
        // upper edge is exactly 0: zero quantiles resolve with no slack.
        EXPECT_EQ(est, 0u) << "q=" << q << " n=" << n;
      }
      EXPECT_LE(est, h.max);
    }
  }
  EXPECT_EQ(obs::HistogramSnapshot{}.percentile(0.5), 0u);  // empty => 0
}

TEST(Histogram, MergeEqualsCombinedRecording) {
  std::mt19937_64 rng{7};
  obs::HistogramSnapshot a;
  obs::HistogramSnapshot b;
  obs::HistogramSnapshot combined;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng() >> (rng() % 64);
    (i % 2 == 0 ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count, combined.count);
  EXPECT_EQ(a.total, combined.total);
  EXPECT_EQ(a.min, combined.min);
  EXPECT_EQ(a.max, combined.max);
  EXPECT_EQ(a.buckets, combined.buckets);
  // Merging an empty histogram is the identity (min stays untouched).
  const obs::HistogramSnapshot before = a;
  a.merge(obs::HistogramSnapshot{});
  EXPECT_EQ(a.count, before.count);
  EXPECT_EQ(a.min, before.min);
  EXPECT_EQ(a.max, before.max);
}

TEST(Histogram, AtomicConcurrentRecordingIsLossless) {
  obs::AtomicHistogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPer = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPer; ++i) {
        h.record(static_cast<std::uint64_t>(t) * kPer + i + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kPer);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, kThreads * kPer);
  // Sum 1..N: every recorded value accounted for exactly once.
  EXPECT_EQ(s.total, kThreads * kPer * (kThreads * kPer + 1) / 2);
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t b : s.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, s.count);
}

TEST(Trace, SpanHistogramsMergeAcrossThreads) {
  ObsSandbox sandbox;
  obs::set_tracing(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPer = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPer; ++i) {
        REALM_TRACE_SCOPE("test/hist_merge");
      }
    });
  }
  for (auto& t : threads) t.join();

  const auto hists = obs::span_histograms();
  ASSERT_EQ(hists.count("test/hist_merge"), 1u);
  const obs::HistogramSnapshot& h = hists.at("test/hist_merge");
  // Histograms never lose spans to ring wrap: the merged count is exact, and
  // the merged total lies between count x min and count x max.
  EXPECT_EQ(h.count, static_cast<std::uint64_t>(kThreads) * kSpansPer);
  EXPECT_LE(h.min, h.max);
  EXPECT_GE(h.total, h.count * h.min);
  EXPECT_LE(h.total, h.count * h.max);
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t b : h.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, h.count);
  EXPECT_GE(h.percentile(0.5), h.min);
  EXPECT_LE(h.percentile(0.99), h.max);

  // And a second identical merge is deterministic.
  const auto again = obs::span_histograms();
  EXPECT_EQ(again.at("test/hist_merge").buckets, h.buckets);
}

TEST(Counters, QueueWaitHistogramTracksCounterTotal) {
  ObsSandbox sandbox;
  ThreadPool pool{1};
  // Both tasks rendezvous, so the caller cannot finish the region alone: the
  // worker must join, and joining is what records a queue-wait sample.
  std::atomic<int> started{0};
  pool.run(2, 0, [&](std::size_t) {
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
  });
  const obs::HistogramSnapshot wait =
      obs::value_hist_snapshot(obs::ValueHist::kPoolQueueWaitNs);
  EXPECT_EQ(wait.count, 1u);  // exactly one worker joined exactly one region
  EXPECT_EQ(obs::counter_value(obs::Counter::kPoolQueueWaitNs), wait.total);
  EXPECT_LE(wait.min, wait.max);
}

TEST(Counters, CatalogNamesAreSyncedUniqueAndStable) {
  // Every enum value must map to a distinct, non-placeholder snake_case
  // name: a renamed or forgotten catalog entry breaks schema consumers.
  const auto check = [](const std::vector<std::string>& names, const char* what) {
    std::set<std::string> seen;
    for (const std::string& n : names) {
      EXPECT_FALSE(n.empty()) << what;
      EXPECT_NE(n, "unknown") << what;
      for (const char c : n) {
        EXPECT_TRUE((std::islower(static_cast<unsigned char>(c)) != 0) ||
                    (std::isdigit(static_cast<unsigned char>(c)) != 0) || c == '_')
            << what << ": '" << n << "'";
      }
      EXPECT_TRUE(seen.insert(n).second) << what << ": duplicate '" << n << "'";
    }
    EXPECT_EQ(seen.size(), names.size()) << what;
  };

  std::vector<std::string> counters;
  for (unsigned c = 0; c < obs::kCounterCount; ++c) {
    counters.emplace_back(obs::counter_name(static_cast<obs::Counter>(c)));
  }
  check(counters, "counter_name");

  std::vector<std::string> gauges;
  for (unsigned g = 0; g < obs::kGaugeCount; ++g) {
    gauges.emplace_back(obs::gauge_name(static_cast<obs::Gauge>(g)));
  }
  check(gauges, "gauge_name");

  std::vector<std::string> vhists;
  for (unsigned h = 0; h < obs::kValueHistCount; ++h) {
    vhists.emplace_back(obs::value_hist_name(static_cast<obs::ValueHist>(h)));
  }
  check(vhists, "value_hist_name");
}

TEST(MetricsSink, JsonValue64BitValuesDoNotTruncate) {
  // Regression test for the LLP64 narrowing bug: long long used to funnel
  // through static_cast<long>, truncating above 2^31 where long is 32 bits.
  EXPECT_EQ(obs::JsonValue{9223372036854775807LL}.render(), "9223372036854775807");
  EXPECT_EQ(obs::JsonValue{-9223372036854775807LL}.render(), "-9223372036854775807");
  EXPECT_EQ(obs::JsonValue{18446744073709551615ULL}.render(), "18446744073709551615");
  EXPECT_EQ(obs::JsonValue{std::uint64_t{1} << 40}.render(), "1099511627776");
}

TEST(Sampler, StartStopCapturesMonotonicTimeline) {
  ObsSandbox sandbox;
  EXPECT_FALSE(obs::Sampler::running());
  obs::Sampler::start(1000.0);
  EXPECT_TRUE(obs::Sampler::running());
  obs::counter_add(obs::Counter::kMcSamples, 17);
  std::this_thread::sleep_for(std::chrono::milliseconds{30});
  obs::Sampler::stop();
  EXPECT_FALSE(obs::Sampler::running());

  const auto samples = obs::timeline_samples();
  // stop() flushes one final sample, so even a fully starved run is non-empty.
  ASSERT_FALSE(samples.empty());
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].t_ns, samples[i - 1].t_ns);
  }
  // The counter bump must appear as a delta in exactly the right amount.
  std::uint64_t mc_delta_sum = 0;
  for (const auto& s : samples) {
    mc_delta_sum += s.counter_delta[static_cast<unsigned>(obs::Counter::kMcSamples)];
  }
  EXPECT_EQ(mc_delta_sum, 17u);
  EXPECT_EQ(obs::timeline_samples_dropped(), 0u);

  // timeline_reset clears it; a second start() records afresh.
  obs::timeline_reset();
  EXPECT_TRUE(obs::timeline_samples().empty());
}

TEST(Sampler, EnvHzParsing) {
  // sampler_env_hz reads REALM_SAMPLE_HZ; unset in the test environment.
  if (std::getenv("REALM_SAMPLE_HZ") == nullptr) {
    EXPECT_EQ(obs::sampler_env_hz(), 0.0);
  }
}

TEST(MetricsSink, NonFiniteMetricsBecomeNull) {
  obs::MetricsSink sink{"unit_test"};
  sink.metric("inf", 1.0 / 0.0);
  sink.metric("nan", 0.0 / 0.0);
  const std::string json = sink.to_json();
  MiniJson parser{json};
  EXPECT_TRUE(parser.valid()) << json;
  EXPECT_NE(json.find("\"inf\": null"), std::string::npos);
  EXPECT_NE(json.find("\"nan\": null"), std::string::npos);
}

}  // namespace
