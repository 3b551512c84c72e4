#include "realm/obs/metrics_sink.hpp"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#if defined(__linux__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "realm/obs/counters.hpp"
#include "realm/obs/histogram.hpp"
#include "realm/obs/sampler.hpp"
#include "realm/obs/trace.hpp"

namespace realm::obs {

namespace {

std::string format_double(double v) {
  char buf[64];
  // %.17g round-trips doubles; trim to a clean token (no trailing garbage).
  std::snprintf(buf, sizeof buf, "%.17g", v);
  std::string s{buf};
  // JSON has no inf/nan tokens; clamp to null (consumers treat as missing).
  if (s.find("inf") != std::string::npos || s.find("nan") != std::string::npos) {
    return "null";
  }
  return s;
}

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

void append_entries(std::string& out, const char* section,
                    const std::vector<std::pair<std::string, JsonValue>>& entries) {
  out += "  ";
  out += json_quote(section);
  out += ": {";
  bool first = true;
  for (const auto& [key, value] : entries) {
    if (!first) out += ',';
    first = false;
    out += "\n    ";
    out += json_quote(key);
    out += ": ";
    out += value.render();
  }
  out += entries.empty() ? "}" : "\n  }";
}

// One histogram rendered as a JSON object.  Durations scale ns -> us via
// `scale` (1.0 for byte-valued histograms); buckets stay raw counts.
void append_histogram(std::string& out, const HistogramSnapshot& h, double scale,
                      const char* unit_suffix) {
  const auto scaled = [&](std::uint64_t v) {
    return format_double(static_cast<double>(v) / scale);
  };
  out += "{\"count\": " + std::to_string(h.count);
  out += ", \"total" + std::string{unit_suffix} + "\": " + scaled(h.total);
  out += ", \"mean" + std::string{unit_suffix} + "\": " +
         format_double(h.count == 0 ? 0.0
                                    : static_cast<double>(h.total) / scale /
                                          static_cast<double>(h.count));
  out += ", \"min" + std::string{unit_suffix} + "\": " +
         scaled(h.count == 0 ? 0 : h.min);
  out += ", \"max" + std::string{unit_suffix} + "\": " + scaled(h.max);
  out += ", \"p50" + std::string{unit_suffix} + "\": " + scaled(h.percentile(0.50));
  out += ", \"p95" + std::string{unit_suffix} + "\": " + scaled(h.percentile(0.95));
  out += ", \"p99" + std::string{unit_suffix} + "\": " + scaled(h.percentile(0.99));
  out += ", \"buckets\": [";
  for (unsigned i = 0; i < kHistogramBuckets; ++i) {
    if (i != 0) out += ',';
    out += std::to_string(h.buckets[i]);
  }
  out += "]}";
}

}  // namespace

std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

std::string run_host() {
#if defined(__linux__) || defined(__APPLE__)
  char buf[256] = {};
  if (::gethostname(buf, sizeof buf - 1) == 0 && buf[0] != '\0') return buf;
#endif
  return "unknown";
}

std::string run_commit() {
  if (const char* v = std::getenv("REALM_GIT_COMMIT"); v != nullptr && v[0] != '\0') {
    return v;
  }
  if (const char* v = std::getenv("GITHUB_SHA"); v != nullptr && v[0] != '\0') {
    return v;
  }
  return "unknown";
}

std::string JsonValue::render() const {
  switch (kind_) {
    case Kind::kString: return json_quote(str_);
    case Kind::kDouble: return format_double(num_);
    case Kind::kInt: return std::to_string(i_);
    case Kind::kUInt: return std::to_string(u_);
    case Kind::kBool: return b_ ? "true" : "false";
  }
  return "null";
}

MetricsSink::MetricsSink(std::string bench) : bench_{std::move(bench)} {}

void MetricsSink::meta(const std::string& key, JsonValue value) {
  meta_.emplace_back(key, std::move(value));
}

void MetricsSink::metric(const std::string& key, JsonValue value) {
  metrics_.emplace_back(key, std::move(value));
}

std::string MetricsSink::to_json() const {
  std::vector<std::pair<std::string, JsonValue>> meta;
  meta.reserve(meta_.size() + 2);
  meta.emplace_back("bench", bench_);
  meta.emplace_back("generated_utc", utc_timestamp());
  for (const auto& e : meta_) meta.push_back(e);

  std::vector<std::pair<std::string, JsonValue>> run;
  run.emplace_back("host", run_host());
  run.emplace_back("commit", run_commit());
  run.emplace_back("hw_threads", std::thread::hardware_concurrency());

  std::vector<std::pair<std::string, JsonValue>> counters;
  counters.reserve(kCounterCount);
  for (unsigned c = 0; c < kCounterCount; ++c) {
    counters.emplace_back(counter_name(static_cast<Counter>(c)),
                          counter_value(static_cast<Counter>(c)));
  }
  std::vector<std::pair<std::string, JsonValue>> gauges;
  gauges.reserve(kGaugeCount);
  for (unsigned g = 0; g < kGaugeCount; ++g) {
    gauges.emplace_back(gauge_name(static_cast<Gauge>(g)),
                        gauge_value(static_cast<Gauge>(g)));
  }

  std::string out;
  out += "{\n  \"schema\": \"realm-bench-v3\",\n";
  append_entries(out, "meta", meta);
  out += ",\n";
  append_entries(out, "run", run);
  out += ",\n";
  append_entries(out, "metrics", metrics_);
  out += ",\n";
  append_entries(out, "counters", counters);
  out += ",\n";
  append_entries(out, "gauges", gauges);

  out += ",\n  \"spans\": {";
  bool first = true;
  for (const auto& [name, hist] : span_histograms()) {
    if (!first) out += ',';
    first = false;
    out += "\n    ";
    out += json_quote(name);
    out += ": ";
    append_histogram(out, hist, 1e3, "_us");
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"value_histograms\": {";
  first = true;
  for (unsigned h = 0; h < kValueHistCount; ++h) {
    if (!first) out += ',';
    first = false;
    out += "\n    ";
    out += json_quote(value_hist_name(static_cast<ValueHist>(h)));
    out += ": ";
    append_histogram(out, value_hist_snapshot(static_cast<ValueHist>(h)), 1.0, "");
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"timeline\": [";
  first = true;
  for (const TimelineSample& s : timeline_samples()) {
    if (!first) out += ',';
    first = false;
    out += "\n    {\"t_us\": " + format_double(static_cast<double>(s.t_ns) / 1e3);
    out += ", \"rss_kb\": " + std::to_string(s.rss_kb);
    out += ", \"pool_workers\": " + std::to_string(s.pool_workers);
    out += ", \"pool_active\": " + std::to_string(s.pool_active);
    out += ", \"pool_queue_depth\": " + std::to_string(s.pool_queue_depth);
    // Only counters that moved this interval: a dense 28-column row per
    // sample would dwarf the rest of the document at high sample rates.
    out += ", \"counters\": {";
    bool cfirst = true;
    for (unsigned c = 0; c < kCounterCount; ++c) {
      if (s.counter_delta[c] == 0) continue;
      if (!cfirst) out += ", ";
      cfirst = false;
      out += json_quote(counter_name(static_cast<Counter>(c)));
      out += ": " + std::to_string(s.counter_delta[c]);
    }
    out += "}}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

void MetricsSink::write(const std::string& path) const {
  const std::filesystem::path p{path};
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream os{p};
  if (!os) throw std::runtime_error("MetricsSink::write: cannot open " + path);
  os << to_json();
  if (!os) throw std::runtime_error("MetricsSink::write: write failed for " + path);
}

}  // namespace realm::obs
