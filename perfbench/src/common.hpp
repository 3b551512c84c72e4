// Shared pieces of the repository benchmark: clocks, exact percentiles,
// seeded draws, counter snapshots, the in-memory span recorder and the
// result record every workload fills in.
//
// Everything here lives outside the library on purpose: the benchmark times
// the library from its public call boundaries, so a change inside a layer
// cannot also change how that layer is measured.

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include <time.h>

#include "realm/numeric/rng.hpp"
#include "realm/obs/counters.hpp"

namespace pb {

/// Nanoseconds on the steady clock (monotonic, process-local epoch).
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed so far by every thread of the process, in ns.  On a
/// virtual machine this excludes the time the hypervisor ran other guests
/// on our vCPUs (steal), which wall time cannot.
[[nodiscard]] inline std::int64_t cpu_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// CPU time of each thread of the process so far, in ns, keyed by thread
/// id.  Like cpu_ns() it excludes steal; unlike it, it shows how the work
/// was spread over the threads.
struct ThreadCpu {
  std::map<int, std::int64_t> ns;

  [[nodiscard]] static ThreadCpu take();
  /// CPU time each thread spent since `before`, skipping the threads in
  /// `skip` (a thread that started in between counts from 0).
  [[nodiscard]] std::vector<std::int64_t> since(const ThreadCpu& before,
                                                const std::vector<int>& skip = {}) const;
};

/// Id of the calling thread, as ThreadCpu keys it.
[[nodiscard]] int thread_id() noexcept;

/// The i-th draw of the benchmark's seeded stream `stream` (splitmix64
/// counter form, so every input is a pure function of (--seed, stream, i)).
[[nodiscard]] inline std::uint64_t draw(std::uint64_t seed, std::uint64_t stream,
                                        std::uint64_t i) noexcept {
  return realm::num::splitmix64_at(realm::num::splitmix64_mix(seed ^ stream), i);
}

/// FNV-1a 64 folded over `bytes`, continuing from `h`.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ULL) noexcept;

/// fnv1a over the object representation of a trivially copyable value.
template <class T>
[[nodiscard]] std::uint64_t fnv1a_value(const T& v, std::uint64_t h) noexcept {
  return fnv1a(std::string_view{reinterpret_cast<const char*>(&v), sizeof v}, h);
}

/// Exact nearest-rank percentile (q in (0, 1]) of raw samples; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Every library counter at one instant; deltas around a pass give exact
/// per-layer work counts.
struct Counters {
  std::array<std::uint64_t, realm::obs::kCounterCount> v{};

  [[nodiscard]] static Counters take() noexcept;
  [[nodiscard]] std::uint64_t operator[](realm::obs::Counter c) const noexcept {
    return v[static_cast<unsigned>(c)];
  }
  /// Accumulates (after - before) into this snapshot.
  void add_delta(const Counters& before, const Counters& after) noexcept;
};

/// In-memory spans recorded around the library's public calls.  Each span
/// has a name, start, end, parent and an optional key (the request seq for
/// serving spans); aggregated kernel spans also carry a call count and the
/// busy time inside their interval.  Written out once, at exit, as Chrome
/// trace events (ui.perfetto.dev opens the file).
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
    std::uint64_t key = 0;
    std::uint32_t thread = 0;
    std::uint64_t count = 0;
    std::int64_t busy_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_{enabled} {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Switches recording on or off; call while no other thread records.
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span; returns its id (-1 when tracing is off).
  std::int64_t open(const char* name, std::int64_t parent = -1, std::uint64_t key = 0);
  void close(std::int64_t id);
  /// Records a finished span.
  std::int64_t add(const Span& s);

  /// Writes every span as a Chrome trace-event JSON array to `path`.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// What a workload hands back to main(): metric values by name (their
/// units live in BENCHMARK.json, next to the names), the set-up time and
/// the op accounting.
struct Report {
  double setup_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< failed checks, one line each
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> layers;
  std::map<std::string, double> info;  ///< run facts printed beside the metrics

  void fail(std::string what) { problems.push_back(std::move(what)); }
};

/// Run options shared by every workload.
struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string out_dir = ".";
};

/// Per-thread slot index for single-writer accumulators (0..kMaxThreads-1).
inline constexpr unsigned kMaxThreads = 64;
[[nodiscard]] unsigned thread_slot();

}  // namespace pb
