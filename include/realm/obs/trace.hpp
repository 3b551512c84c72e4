// Scoped tracing into per-thread lock-free ring buffers.
//
// REALM_TRACE_SCOPE("mc/shard") records one complete ("X"-phase) span per
// dynamic scope: {name, start, duration, thread}.  Recording is gated on a
// single process-wide atomic flag — a disabled span is one relaxed load and
// a predictable branch, so instrumentation can live inside the hot engines
// without a compile-time switch and tier-1 bench numbers are unaffected.
//
// Storage is one fixed-capacity ring per thread (registered on first use,
// kept alive for the process so worker-thread spans survive thread exit).
// The owning thread is the only writer; it publishes each slot with a
// release store of the ring head and never blocks.  When a ring wraps, the
// oldest spans are overwritten and counted as dropped — tracing overhead is
// bounded by construction, never by backpressure.
//
// Export targets the Chrome trace-event format (chrome://tracing and
// ui.perfetto.dev load it directly); per-name span histograms
// (count/total/min/max and log2 buckets, see span_histograms()) feed
// MetricsSink for the schema-stable BENCH_*.json files.
// Exporting while threads are still recording is safe (slot fields are
// relaxed atomics) but a concurrently overwritten slot may mix fields from
// two spans; quiesce the workload first for exact output.
//
// Enable at runtime with obs::set_tracing(true), the --trace=PATH bench
// flag, or the REALM_TRACE environment variable ("0" = off, "1" = record
// only, anything else = record and treat the value as the default export
// path, see trace_env_path()).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "realm/obs/histogram.hpp"

namespace realm::obs {

namespace detail {

extern std::atomic<bool> g_trace_enabled;
extern constinit thread_local std::uint64_t g_trace_rid;

/// Appends one finished span to the calling thread's ring buffer.
void record_span(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns);

}  // namespace detail

/// The single branch every disabled span costs.
[[nodiscard]] inline bool tracing_enabled() noexcept {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

void set_tracing(bool on) noexcept;

/// Nanoseconds since the process trace epoch (monotonic).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// REALM_TRACE values other than "", "0" and "1" name a default trace
/// output path; returns nullptr otherwise.
[[nodiscard]] const char* trace_env_path() noexcept;

/// The request id spans recorded by this thread are attributed to (0 = no
/// request in scope).  Set via ScopedTraceContext; the serving layer assigns
/// one id per accepted request frame and propagates it across the executor
/// and thread-pool hops so a Chrome trace shows one coherent lane per
/// request instead of anonymous pool spans.
[[nodiscard]] inline std::uint64_t current_trace_rid() noexcept {
  return detail::g_trace_rid;
}

/// RAII trace context: installs a request id on this thread for the scope's
/// lifetime and restores the previous one on exit.  Two thread-local writes
/// when tracing is off — cheap enough for per-request (not per-sample) use.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(std::uint64_t rid) noexcept
      : prev_{detail::g_trace_rid} {
    detail::g_trace_rid = rid;
  }
  ~ScopedTraceContext() { detail::g_trace_rid = prev_; }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  std::uint64_t prev_;
};

/// RAII span: timestamps are taken only if tracing was enabled at entry, and
/// a span in flight when tracing is disabled still completes (so exports see
/// no half-open scopes).  The thread's current trace context (request id) at
/// destruction time is recorded with the span.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept {
    if (tracing_enabled()) {
      name_ = name;
      start_ = now_ns();
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) detail::record_span(name_, start_, now_ns() - start_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Records nothing at scope exit: for a probe that found no work.
  void cancel() noexcept { name_ = nullptr; }

 private:
  const char* name_ = nullptr;  // must be a string literal (stored by pointer)
  std::uint64_t start_ = 0;
};

#define REALM_OBS_CONCAT2(a, b) a##b
#define REALM_OBS_CONCAT(a, b) REALM_OBS_CONCAT2(a, b)
/// Traces the enclosing scope under `name` (a string literal).
#define REALM_TRACE_SCOPE(name) \
  ::realm::obs::ScopedSpan REALM_OBS_CONCAT(realm_trace_scope_, __LINE__) { name }

/// Spans recorded since the last trace_reset() (includes spans later
/// overwritten by a wrapping ring).
[[nodiscard]] std::size_t trace_events_recorded();

/// Spans lost to ring wrap-around (recorded - still exportable).
[[nodiscard]] std::size_t trace_events_dropped();

/// Per-name duration histograms (nanoseconds), merged across every thread's
/// table at call time.  Unlike the export rings, these are fed on every
/// record_span and never lose spans to ring wrap-around, so
/// count/total/min/max here are exact over the whole run and the log2
/// buckets supply p50/p95/p99 for the realm-bench-v3 spans section.
[[nodiscard]] std::map<std::string, HistogramSnapshot> span_histograms();

/// Chrome trace-event JSON ("X" phase events, ts/dur in microseconds).
[[nodiscard]] std::string chrome_trace_json();

/// chrome_trace_json() to a file (parent directories are created).  Throws
/// std::runtime_error if the file cannot be written.
void write_chrome_trace(const std::string& path);

/// Discards all recorded spans and the dropped tally.  Callers must quiesce
/// recording threads first (test/bench support).
void trace_reset();

}  // namespace realm::obs
