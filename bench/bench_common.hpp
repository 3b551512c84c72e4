// Shared helpers for the reproduction benches: flag parsing, the unified
// measurement/trace output path, and the paper's reference numbers for
// side-by-side reporting.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "realm/campaign/result_store.hpp"
#include "realm/campaign/runner.hpp"
#include "realm/obs/metrics_sink.hpp"
#include "realm/obs/sampler.hpp"
#include "realm/obs/trace.hpp"
#include "../tools/parse_u64.hpp"

namespace realm::bench {

/// --samples=N / --cycles=N / --threads=N / --quick style flag parsing;
/// unknown flags and malformed numbers are fatal so typos do not silently
/// run the default experiment.
struct Args {
  std::uint64_t samples = std::uint64_t{1} << 22;  ///< Monte-Carlo pairs
  std::uint32_t cycles = 1000;                     ///< power stimulus vectors
  int image_size = 512;                            ///< JPEG evaluation images
  int threads = 0;  ///< parallelism (MC shards / gate-sim blocks); 0 = all cores
  bool full = false;  ///< use the paper's full 2^24 sample budget
  int width = 0;           ///< --width=N: operand width for exhaustive benches
  std::uint64_t rows = 0;  ///< --rows=N: row-subrange cap for exhaustive benches
  bool exact = false;      ///< --exact: add exact exhaustive columns (table1)
  std::string trace_path;  ///< --trace=PATH: record spans, export Chrome JSON
  std::string json_path;   ///< --json=PATH: override the bench's BENCH_*.json
  std::string store_path;  ///< --store=PATH: attach a campaign result store
  bool resume = false;     ///< --resume: replay completed units from the store
  double sample_hz = 0.0;  ///< --sample-hz=N / REALM_SAMPLE_HZ: timeline sampler

  /// Strict --store validation (the PR 2 convention: bad input exits 2, it
  /// never silently runs without the store): the path must not name a
  /// directory, its parent must exist or be creatable, and the journal must
  /// be openable for append.
  static void validate_store_path(const std::string& path) {
    namespace fs = std::filesystem;
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      std::fprintf(stderr, "bad value for --store: '%s' is a directory\n",
                   path.c_str());
      std::exit(2);
    }
    const fs::path parent = fs::path{path}.parent_path();
    if (!parent.empty()) {
      fs::create_directories(parent, ec);
      if (ec) {
        std::fprintf(stderr, "bad value for --store: cannot create '%s' (%s)\n",
                     parent.c_str(), ec.message().c_str());
        std::exit(2);
      }
    }
    std::FILE* probe = std::fopen(path.c_str(), "ab");
    if (probe == nullptr) {
      std::fprintf(stderr, "bad value for --store: '%s' is not writable\n",
                   path.c_str());
      std::exit(2);
    }
    std::fclose(probe);
  }

  static Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto val = [&](const char* prefix) -> const char* {
        return arg.c_str() + std::strlen(prefix);
      };
      if (arg.rfind("--samples=", 0) == 0) {
        a.samples = cli::parse_u64_flag("--samples", val("--samples="), 1,
                                        std::uint64_t{1} << 40);
      } else if (arg.rfind("--cycles=", 0) == 0) {
        a.cycles = static_cast<std::uint32_t>(
            cli::parse_u64_flag("--cycles", val("--cycles="), 1, 1u << 30));
      } else if (arg.rfind("--image-size=", 0) == 0) {
        a.image_size = static_cast<int>(
            cli::parse_u64_flag("--image-size", val("--image-size="), 8, 1u << 14));
      } else if (arg.rfind("--threads=", 0) == 0) {
        a.threads = static_cast<int>(
            cli::parse_u64_flag("--threads", val("--threads="), 0, 1u << 16));
      } else if (arg.rfind("--width=", 0) == 0) {
        a.width = static_cast<int>(
            cli::parse_u64_flag("--width", val("--width="), 2, 31));
      } else if (arg.rfind("--rows=", 0) == 0) {
        a.rows = cli::parse_u64_flag("--rows", val("--rows="), 1,
                                     std::uint64_t{1} << 31);
      } else if (arg == "--exact") {
        a.exact = true;
      } else if (arg.rfind("--trace=", 0) == 0) {
        a.trace_path = val("--trace=");
        if (a.trace_path.empty()) {
          std::fprintf(stderr, "bad value for --trace: expected a file path\n");
          std::exit(2);
        }
      } else if (arg.rfind("--json=", 0) == 0) {
        a.json_path = val("--json=");
        if (a.json_path.empty()) {
          std::fprintf(stderr, "bad value for --json: expected a file path\n");
          std::exit(2);
        }
      } else if (arg.rfind("--store=", 0) == 0) {
        a.store_path = val("--store=");
        if (a.store_path.empty()) {
          std::fprintf(stderr, "bad value for --store: expected a file path\n");
          std::exit(2);
        }
      } else if (arg == "--resume") {
        a.resume = true;
      } else if (arg.rfind("--sample-hz=", 0) == 0) {
        a.sample_hz = static_cast<double>(
            cli::parse_u64_flag("--sample-hz", val("--sample-hz="), 1, 1000));
      } else if (arg == "--full") {
        a.full = true;
        a.samples = std::uint64_t{1} << 24;  // the paper's budget
        a.cycles = 4000;
      } else if (arg == "--help") {
        std::printf(
            "flags: --samples=N --cycles=N --image-size=N "
            "--threads=N --width=N --rows=N --exact --full --trace=PATH "
            "--json=PATH --store=PATH --resume --sample-hz=N\n");
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
        std::exit(2);
      }
    }
    if (a.resume && a.store_path.empty()) {
      std::fprintf(stderr, "--resume requires --store=PATH\n");
      std::exit(2);
    }
    if (!a.store_path.empty()) validate_store_path(a.store_path);
    // REALM_TRACE=path is the env-var equivalent of --trace=path (the
    // explicit flag wins); REALM_TRACE=1 merely enables recording.
    if (a.trace_path.empty()) {
      if (const char* env = obs::trace_env_path()) a.trace_path = env;
    }
    if (!a.trace_path.empty()) obs::set_tracing(true);
    // REALM_SAMPLE_HZ is the env-var equivalent of --sample-hz (the
    // explicit flag wins); the sampler runs for the whole bench and
    // write_outputs stops it before snapshotting the timeline.
    if (a.sample_hz <= 0.0) a.sample_hz = obs::sampler_env_hz();
    if (a.sample_hz > 0.0) obs::Sampler::start(a.sample_hz);
    return a;
  }
};

/// An attached campaign (--store=PATH [--resume]), or an inert pair of
/// nulls when no store was requested — benches pass `runner()` straight to
/// the campaign-aware engines either way.
struct Campaign {
  std::unique_ptr<campaign::ResultStore> store;
  std::unique_ptr<campaign::CampaignRunner> campaign_runner;

  [[nodiscard]] campaign::CampaignRunner* runner() const noexcept {
    return campaign_runner.get();
  }
  [[nodiscard]] explicit operator bool() const noexcept {
    return campaign_runner != nullptr;
  }

  /// Annotates a sink with the campaign's outcome (store path, resumed vs
  /// computed units, journal stats).  Everything goes to `meta`, never
  /// `metrics`: the crash/resume smoke asserts metrics-equality between an
  /// interrupted and an uninterrupted run, and resumed-unit tallies differ
  /// between those by design (they are also in the counters snapshot).
  void describe(obs::MetricsSink& sink) const {
    if (!campaign_runner) return;
    const auto s = store->stats();
    sink.meta("campaign_store", store->path());
    sink.meta("campaign_resume", campaign_runner->resume());
    sink.meta("campaign_units_resumed", campaign_runner->units_resumed());
    sink.meta("campaign_units_computed", campaign_runner->units_computed());
    sink.meta("store_records_live", s.records_live);
    sink.meta("store_bytes_appended", s.bytes_appended);
  }
};

/// Opens the campaign store named by --store (exit 2 on failure, matching
/// the flag conventions); returns an inert Campaign when no store was given.
inline Campaign open_campaign(const Args& args) {
  Campaign c;
  if (args.store_path.empty()) return c;
  try {
    c.store = std::make_unique<campaign::ResultStore>(args.store_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot open --store: %s\n", e.what());
    std::exit(2);
  }
  c.campaign_runner =
      std::make_unique<campaign::CampaignRunner>(c.store.get(), args.resume);
  return c;
}

/// The single exit path for bench measurements: stops the sampler (so the
/// timeline snapshot is complete), writes the sink (with the counter/gauge/
/// span/timeline snapshot) to --json=PATH or the bench's default
/// BENCH_*.json and — when tracing was requested — the Chrome trace next to
/// it.  Every bench that used to hand-roll snprintf JSON now funnels here.
inline void write_outputs(const Args& args, const obs::MetricsSink& sink,
                          const std::string& default_json) {
  if (args.sample_hz > 0.0) obs::Sampler::stop();
  const std::string& json_path = args.json_path.empty() ? default_json : args.json_path;
  sink.write(json_path);
  std::printf("measurements written to %s\n", json_path.c_str());
  if (!args.trace_path.empty()) {
    obs::write_chrome_trace(args.trace_path);
    std::printf("trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n",
                args.trace_path.c_str());
  }
}

/// Best-of wall-clock seconds for one call of fn: a warm-up call (pages in
/// code, spins up pool workers, fills caches), then repetitions until 0.5 s
/// and 3 repetitions have passed or `max_reps` have run.  The minimum rather
/// than the mean: external noise on a shared machine only ever slows a run.
template <typename Fn>
double best_seconds(Fn&& fn, int max_reps = 64) {
  using clock = std::chrono::steady_clock;
  fn();
  double best = 1e300;
  double elapsed = 0.0;
  int reps = 0;
  do {
    const auto t0 = clock::now();
    fn();
    const double dt = std::chrono::duration<double>(clock::now() - t0).count();
    best = std::min(best, dt);
    elapsed += dt;
    ++reps;
  } while ((elapsed < 0.5 || reps < 3) && reps < max_reps);
  return best;
}

inline void print_rule(int width = 118) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace realm::bench
