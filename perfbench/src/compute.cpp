#include "compute.hpp"

#include <algorithm>
#include <string>

namespace pb {

namespace {

using realm::obs::Counter;

/// Passes every run makes at least, so a short --seconds still yields a
/// median and, when traced, both kinds of pass.
constexpr int kMinPasses = 3;

}  // namespace

Report run_compute(ComputeWorkload& w, const Options& opt, Tracer& tracer) {
  Report r;
  const bool tracing = tracer.enabled();
  tracer.set_enabled(false);
  const std::int64_t cpu_start = cpu_ns();
  w.setup(r);
  const std::vector<Unit> baseline = w.pass(false, tracer, -1);
  r.setup_s = static_cast<double>(cpu_ns() - cpu_start) / 1e9;
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    if (!baseline[i].ok) r.fail("unit " + std::to_string(i) + " failed its check in the warm-up pass");
  }
  if (opt.setup_only) return r;

  std::vector<double> rates[2];  // ops per CPU-second of [untraced, traced] passes
  std::vector<double> busiest_rates;  // ops per CPU-second of the busiest thread, untraced
  std::vector<double> wall_rates;
  std::vector<double> cores;     // CPU time / wall time per untraced pass
  Counters measured;  // all measured passes
  Counters traced;    // traced passes only
  double traced_wall_ns = 0.0;
  double unaccounted_ns = 0.0;
  const auto deadline = now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (int i = 0; now_ns() < deadline || i < kMinPasses; ++i) {
    const bool trace = tracing && i % 2 == 1;
    tracer.set_enabled(trace);
    const Counters c0 = Counters::take();
    const ThreadCpu t0 = ThreadCpu::take();
    const std::int64_t span = trace ? tracer.open("pass") : -1;
    const std::int64_t cpu0 = cpu_ns();
    const std::int64_t p0 = now_ns();
    const std::vector<Unit> units = w.pass(trace, tracer, span);
    const auto wall = static_cast<double>(now_ns() - p0);
    const auto cpu = static_cast<double>(cpu_ns() - cpu0);
    tracer.close(span);
    const std::vector<std::int64_t> per_thread = ThreadCpu::take().since(t0);
    const Counters c1 = Counters::take();
    measured.add_delta(c0, c1);

    std::uint64_t ops = 0;
    double units_ns = 0.0;
    for (std::size_t u = 0; u < units.size(); ++u) {
      ops += units[u].ops;
      units_ns += static_cast<double>(units[u].ns);
      r.attempted += units[u].ops;
      const bool ok = units[u].ok && w.unit_ok(u) && u < baseline.size() &&
                      units[u].digest == baseline[u].digest;
      if (!ok) {
        r.failed += units[u].ops;
        r.fail("pass " + std::to_string(i) + " unit " + std::to_string(u) +
               (units[u].ok ? ": output differs from the warm-up pass"
                            : ": output check failed"));
      }
    }
    rates[trace ? 1 : 0].push_back(static_cast<double>(ops) / (cpu / 1e9));
    if (trace) {
      traced.add_delta(c0, c1);
      traced_wall_ns += wall;
      unaccounted_ns += wall - units_ns;
    } else {
      const auto busiest = static_cast<double>(
          *std::max_element(per_thread.begin(), per_thread.end()));
      busiest_rates.push_back(static_cast<double>(ops) / (busiest / 1e9));
      wall_rates.push_back(static_cast<double>(ops) / (wall / 1e9));
      cores.push_back(cpu / wall);
    }
  }
  for (std::size_t u = 0; u < baseline.size(); ++u) {
    if (!w.unit_ok(u)) r.fail("unit " + std::to_string(u) + " failed its set-up check");
  }

  r.end_to_end["setup_s"] = r.setup_s;
  r.end_to_end["ops_per_s"] = median(rates[0]);
  r.end_to_end["ops_per_busiest_thread_s"] = median(busiest_rates);
  r.info["passes"] = static_cast<double>(rates[0].size() + rates[1].size());
  r.info["wall_ops_per_s"] = median(wall_rates);
  r.info["cores_used"] = median(cores);

  // Exact counts over every measured pass (all passes do identical work).
  r.layers["core.lut_cache_misses"] =
      static_cast<double>(measured[Counter::kLutCacheMisses]);
  r.layers["core.lut_cache_hits"] = static_cast<double>(measured[Counter::kLutCacheHits]);
  r.layers["mult.row_fallback_batches"] =
      static_cast<double>(measured[Counter::kRowFallbackBatches]);
  r.layers["pool.tasks_inline"] = static_cast<double>(measured[Counter::kPoolTasksInline]);
  r.layers["pool.regions"] = static_cast<double>(measured[Counter::kPoolRegions]);
  if (tracing) {
    const auto regions = static_cast<double>(traced[Counter::kPoolRegions]);
    r.layers["pool.queue_wait_ns_per_region"] =
        regions > 0 ? static_cast<double>(traced[Counter::kPoolQueueWaitNs]) / regions : 0.0;
    r.layers["trace_overhead_pct"] = (median(rates[0]) / median(rates[1]) - 1.0) * 100.0;
    const double unaccounted_pct = unaccounted_ns / traced_wall_ns * 100.0;
    r.layers["trace.unaccounted_pct"] = unaccounted_pct;
    if (unaccounted_pct > 5.0) {
      r.fail("traced passes: units cover only " + std::to_string(100.0 - unaccounted_pct) +
             "% of the pass wall time");
    }
    w.layer_metrics(r, traced_wall_ns);
  }
  return r;
}

}  // namespace pb
