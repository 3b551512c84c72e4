// Unified bench measurement emitter.
//
// Every bench used to hand-roll its own snprintf JSON; MetricsSink is the
// single code path that replaces them.  A sink collects free-form metadata
// and numeric results during the run, and write()/to_json() wraps them —
// together with a snapshot of the global counter table, gauges, span
// histograms, value histograms and the sampler timeline — into one
// schema-stable document:
//
//   {
//     "schema": "realm-bench-v3",
//     "meta":     { "bench": ..., caller metadata ... },
//     "run":      { "host": ..., "commit": ..., "hw_threads": ... },
//     "metrics":  { caller results, insertion order preserved ... },
//     "counters": { every obs::Counter, zero or not ... },
//     "gauges":   { every obs::Gauge ... },
//     "spans":    { "mc/shard": {"count":..,"total_us":..,"p50_us":..,
//                                "p95_us":..,"p99_us":..,"buckets":[..]}, ... },
//     "value_histograms": { every obs::ValueHist ... },
//     "timeline": [ sampler snapshots, [] unless --sample-hz was given ]
//   }
//
// "counters" and "value_histograms" always list their full catalogs so
// consumers can diff runs without key-existence churn; "spans" is empty
// unless tracing was on.  v3 extends v2 with the "run" stamp, per-span
// percentiles + bucket arrays, the value-histogram catalog and the
// timeline.  This document is the only bench-result format:
// `check_bench_schema.py --diff` compares two runs of it.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace realm::obs {

/// Tagged value for JSON emission; implicit constructors let call sites pass
/// native types (sink.metric("speedup", 5.2)).
class JsonValue {
 public:
  enum class Kind { kString, kDouble, kInt, kUInt, kBool };

  JsonValue(const char* s) : kind_{Kind::kString}, str_{s} {}
  JsonValue(std::string s) : kind_{Kind::kString}, str_{std::move(s)} {}
  JsonValue(double v) : kind_{Kind::kDouble}, num_{v} {}
  JsonValue(bool v) : kind_{Kind::kBool}, b_{v} {}
  JsonValue(int v) : kind_{Kind::kInt}, i_{v} {}
  JsonValue(unsigned v) : kind_{Kind::kUInt}, u_{v} {}
  JsonValue(long v) : kind_{Kind::kInt}, i_{v} {}
  JsonValue(unsigned long v) : kind_{Kind::kUInt}, u_{v} {}
  // long long is at least 64 bits on every platform, so routing it through
  // std::int64_t is value-preserving everywhere (the previous
  // static_cast<long> truncated on LLP64 targets where long is 32 bits).
  JsonValue(long long v) : kind_{Kind::kInt}, i_{static_cast<std::int64_t>(v)} {}
  JsonValue(unsigned long long v)
      : kind_{Kind::kUInt}, u_{static_cast<std::uint64_t>(v)} {}

  /// The value rendered as a JSON token (quoted/escaped for strings).
  [[nodiscard]] std::string render() const;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }

 private:
  Kind kind_;
  std::string str_;
  double num_ = 0.0;
  std::int64_t i_ = 0;
  std::uint64_t u_ = 0;
  bool b_ = false;
};

/// Escapes a string for embedding in a JSON document (quotes included).
[[nodiscard]] std::string json_quote(const std::string& s);

/// Host name of the machine producing this run ("unknown" on failure).
[[nodiscard]] std::string run_host();

/// Commit stamp: REALM_GIT_COMMIT, else GITHUB_SHA, else "unknown" — CI
/// exports one of these so bench documents are commit-addressable.
[[nodiscard]] std::string run_commit();

class MetricsSink {
 public:
  /// `bench` becomes meta.bench and identifies the producing harness.
  explicit MetricsSink(std::string bench);

  [[nodiscard]] const std::string& bench() const noexcept { return bench_; }

  /// Run description (configuration, budgets, host facts).  Insertion order
  /// is preserved; re-using a key appends a second entry — don't.
  void meta(const std::string& key, JsonValue value);

  /// A measured result.
  void metric(const std::string& key, JsonValue value);

  /// Full document, including the counter/gauge/span/timeline snapshot
  /// taken now.
  [[nodiscard]] std::string to_json() const;

  /// to_json() to a file, creating parent directories.  Throws
  /// std::runtime_error on I/O failure.
  void write(const std::string& path) const;

 private:
  std::string bench_;
  std::vector<std::pair<std::string, JsonValue>> meta_;
  std::vector<std::pair<std::string, JsonValue>> metrics_;
};

}  // namespace realm::obs
