// serve_mixed: an open-loop request mix against an in-process server.
//
// Set-up opens a fresh campaign store inside the output directory, starts a
// net::Server on loopback TCP (2 executors, 2 engine threads), connects four
// clients, pre-fills the store with the warm keys, encodes the request
// bodies and their expected replies, and runs a one-second warm-up at the
// measured rate.  The measured window then sends requests on a Poisson
// schedule drawn from --seed, spread over the four connections (a free
// connection takes the next due request).  Every latency runs from the
// request's *scheduled* send to its reply, so a stall also charges the
// requests it delayed (no coordinated omission).  ops_per_s is verified
// replies per CPU-second of the server's threads (the generator's own
// threads and the main thread excluded), ops_per_busiest_thread_s the same
// per CPU-second of the busiest server thread, each the median over
// one-second windows; the wall-clock percentiles are reported beside them
// without a bound, because on the virtual host they follow the
// hypervisor's steal more than the code (README.md).
//
// The mix, one op per verified reply:
//   50% multiply_batch    4096 operands on one of 4 specs; the reply must
//                         equal the client-side scalar products
//   30% warm characterize_mc  a pre-filled key, answered from the store on
//                         the loop thread; must be byte-equal to the cold
//                         reply that filled it
//   10% cold characterize_mc  a fresh seed, 2^14 samples, computed on an
//                         executor and appended to the store
//    5% sij_lookup        must be byte-equal to the set-up reply
//    5% stats
// Error replies and timeouts count as failed ops.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "families.hpp"
#include "realm/campaign/record.hpp"
#include "realm/campaign/result_store.hpp"
#include "realm/campaign/runner.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/net/client.hpp"
#include "realm/net/protocol.hpp"
#include "realm/net/server.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

using realm::net::MsgType;
using realm::obs::Counter;

/// Open-loop rate.  The mix's closed-loop capacity measured ~2700 req/s on
/// a quiet 4-vCPU host and ~700 when the hypervisor stole time; at 750
/// req/s and above the four blocking connections fell behind in the busy
/// periods, so the rate sits below the busy-host capacity.
constexpr double kRate = 500.0;
constexpr int kConnections = 4;
constexpr std::size_t kBatchOperands = 4096;
constexpr std::size_t kBatchBodies = 64;
constexpr std::size_t kWarmKeys = 64;
constexpr std::uint64_t kMcSamples = std::uint64_t{1} << 14;
constexpr double kWarmupSeconds = 1.0;
constexpr int kTimeoutMs = 10000;
const char* const kSpecs[] = {"realm:m=16,t=4", "calm", "mbm:t=0", "drum:k=6"};
constexpr int kSijM[] = {4, 8, 16};
constexpr int kSijQ = 6;

enum Kind : unsigned { kBatch = 0, kMcWarm, kMcCold, kSij, kStats, kKinds };
const char* const kKindNames[kKinds] = {"multiply_batch", "mc_warm", "mc_cold", "sij_lookup",
                                        "stats"};

// Seeded streams (one per kind of input).
constexpr std::uint64_t kMixStream = 0x5e1ec7;
constexpr std::uint64_t kGapStream = 0x9a9;
constexpr std::uint64_t kOperandStream = 0x0be7a;
constexpr std::uint64_t kWarmStream = 0x3a7;
constexpr std::uint64_t kColdStream = 0xc01d;

/// One request body with the reply that proves it right (empty = any ok
/// reply).
struct Prepared {
  MsgType type = MsgType::kPing;
  std::string body;
  std::string expect;
};

std::string mc_body(const char* spec, std::uint64_t seed) {
  return realm::campaign::PayloadWriter{}
      .field_str("spec", spec)
      .field("n", std::int64_t{kWidth})
      .field("samples", kMcSamples)
      .field("seed", seed)
      .str();
}

/// One finished request as the generator saw it.
struct Sample {
  unsigned kind = 0;
  std::int64_t due_ns = 0;     ///< offset of the scheduled send from the window start
  std::int64_t late_ns = 0;    ///< actual send - scheduled send
  std::int64_t latency_ns = 0; ///< reply - scheduled send
  bool ok = false;
};

/// Verified replies per CPU-second of the server's threads (all of them,
/// and the busiest one), one entry per whole second of the window.
struct CpuRates {
  std::vector<double> total;
  std::vector<double> busiest;
};

class ServeMixed {
 public:
  ServeMixed(const Options& opt, Tracer& tracer) : opt_{opt}, tracer_{tracer} {}
  ServeMixed(const ServeMixed&) = delete;
  ServeMixed& operator=(const ServeMixed&) = delete;

  ~ServeMixed() {
    if (loop_.joinable()) {
      server_->request_stop();
      loop_.join();
    }
    clients_.clear();
    server_.reset();
    runner_.reset();
    store_.reset();
    if (!store_path_.empty()) std::remove(store_path_.c_str());
  }

  Report run() {
    Report r;
    const std::int64_t cpu0 = cpu_ns();
    setup(r);
    // Warm-up: the same mix on its own seeded stream, discarded.
    const std::vector<Sample> warm = window(kWarmupSeconds, 1, false);
    r.setup_s = static_cast<double>(cpu_ns() - cpu0) / 1e9;
    for (const Sample& s : warm) {
      if (!s.ok) {
        r.fail("warm-up request failed");
        break;
      }
    }
    if (opt_.setup_only) return r;

    const Counters c0 = Counters::take();
    const std::int64_t w0 = now_ns();
    CpuRates cpu_rates;
    const std::vector<Sample> samples = window(opt_.seconds, 0, opt_.trace, &cpu_rates);
    const std::int64_t w1 = now_ns();
    Counters d;
    d.add_delta(c0, Counters::take());
    summarize(r, samples, static_cast<double>(w1 - w0) / 1e9, cpu_rates, d);
    return r;
  }

 private:
  void setup(Report& r) {
    store_path_ = opt_.out_dir + "/serve-store-" + std::to_string(::getpid()) + ".journal";
    std::remove(store_path_.c_str());
    store_ = std::make_unique<realm::campaign::ResultStore>(store_path_);
    runner_ = std::make_unique<realm::campaign::CampaignRunner>(store_.get(), true);
    realm::net::ServerOptions so;
    so.tcp_port = 0;
    so.executor_threads = 2;
    so.engine_threads = kEngineThreads;
    so.campaign = runner_.get();
    server_ = std::make_unique<realm::net::Server>(std::move(so));
    server_->start();
    loop_ = std::thread{[this] { server_->run(); }};
    clients_.resize(kConnections);
    for (auto& c : clients_) c.connect_tcp(server_->port());

    // multiply_batch bodies and their client-side scalar products.
    std::vector<std::unique_ptr<realm::Multiplier>> models;
    for (const char* spec : kSpecs) models.push_back(realm::mult::make_multiplier(spec, kWidth));
    const std::uint64_t mask = (std::uint64_t{1} << kWidth) - 1;
    for (std::size_t j = 0; j < kBatchBodies; ++j) {
      std::vector<std::uint64_t> a(kBatchOperands), b(kBatchOperands), out(kBatchOperands);
      const std::size_t s = j % std::size(kSpecs);
      for (std::size_t k = 0; k < kBatchOperands; ++k) {
        const std::uint64_t x = draw(opt_.seed, kOperandStream + j, k);
        a[k] = x & mask;
        b[k] = (x >> 32) & mask;
        out[k] = models[s]->multiply(a[k], b[k]);
      }
      batch_.push_back(Prepared{MsgType::kMultiplyBatch,
                                realm::campaign::PayloadWriter{}
                                    .field_str("spec", kSpecs[s])
                                    .field("n", std::int64_t{kWidth})
                                    .field_str("a", realm::net::encode_u64_list(a))
                                    .field_str("b", realm::net::encode_u64_list(b))
                                    .str(),
                                realm::campaign::PayloadWriter{}
                                    .field_str("out", realm::net::encode_u64_list(out))
                                    .str()});
    }
    // Pre-fill: each warm key is computed once (cold) and its reply kept.
    for (std::size_t j = 0; j < kWarmKeys; ++j) {
      Prepared p{MsgType::kCharacterizeMc,
                 mc_body(kSpecs[j % std::size(kSpecs)], draw(opt_.seed, kWarmStream, j)), {}};
      p.expect = call_ok(p, r);
      warm_.push_back(std::move(p));
    }
    for (const int m : kSijM) {
      Prepared p{MsgType::kSijLookup,
                 realm::campaign::PayloadWriter{}
                     .field("m", std::int64_t{m})
                     .field("q", std::int64_t{kSijQ})
                     .str(),
                 {}};
      p.expect = call_ok(p, r);
      sij_.push_back(std::move(p));
    }
  }

  /// A set-up request on connection 0; returns the reply body.
  std::string call_ok(const Prepared& p, Report& r) {
    const realm::net::Frame f = clients_[0].call(p.type, ++setup_seq_, p.body, kTimeoutMs);
    if (f.type != MsgType::kReplyOk) r.fail("set-up request failed: " + f.body);
    return f.body;
  }

  /// Kind and body index of request k of stream `stream`.
  [[nodiscard]] std::pair<unsigned, std::uint64_t> describe(std::uint64_t stream,
                                                            std::uint64_t k) const {
    const std::uint64_t x = draw(opt_.seed, kMixStream + stream, k);
    const std::uint64_t pct = x % 100;
    const std::uint64_t pick = x >> 32;
    if (pct < 50) return {kBatch, pick % kBatchBodies};
    if (pct < 80) return {kMcWarm, pick % kWarmKeys};
    if (pct < 90) return {kMcCold, draw(opt_.seed, kColdStream + stream, k)};
    if (pct < 95) return {kSij, pick % std::size(kSijM)};
    return {kStats, 0};
  }

  /// Runs one open-loop window and returns every request's sample.  With
  /// `cpu_rates`, also samples the server threads' CPU clocks once a second
  /// and records each whole second's verified replies per CPU-second.
  std::vector<Sample> window(double seconds, std::uint64_t stream, bool trace,
                             CpuRates* cpu_rates = nullptr) {
    // Poisson schedule: exponential gaps drawn from the seed.
    std::vector<std::int64_t> due;
    double t = 0.0;
    for (std::uint64_t k = 0;; ++k) {
      const double u = static_cast<double>(draw(opt_.seed, kGapStream + stream, k) >> 11) *
                       0x1.0p-53;
      t += -std::log1p(-u) / kRate;
      if (t >= seconds) break;
      due.push_back(static_cast<std::int64_t>(t * 1e9));
    }
    std::vector<std::vector<Sample>> per(kConnections);
    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> verified{0};
    // The benchmark's own threads, left out of the server's CPU time.
    std::vector<std::atomic<int>> own(kConnections + 1);
    own[kConnections] = thread_id();
    const std::int64_t start = now_ns();
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        own[static_cast<std::size_t>(c)] = thread_id();
        std::vector<Sample>& out = per[static_cast<std::size_t>(c)];
        realm::net::Client& client = clients_[static_cast<std::size_t>(c)];
        for (;;) {
          const std::uint64_t k = next.fetch_add(1, std::memory_order_relaxed);
          if (k >= due.size()) return;
          Sample s;
          s.due_ns = due[k];
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point{
              std::chrono::nanoseconds{start + s.due_ns}});
          const auto [kind, which] = describe(stream, k);
          s.kind = kind;
          const std::int64_t sent = now_ns();
          s.late_ns = sent - (start + s.due_ns);
          s.ok = send(client, k, kind, which, trace && (s.due_ns / 1'000'000'000) % 2 == 1);
          s.latency_ns = now_ns() - (start + s.due_ns);
          if (s.ok) verified.fetch_add(1, std::memory_order_relaxed);
          out.push_back(s);
        }
      });
    }
    if (cpu_rates != nullptr) {
      ThreadCpu cpu_prev = ThreadCpu::take();
      std::uint64_t done_prev = 0;
      const auto windows = std::max<std::int64_t>(1, static_cast<std::int64_t>(seconds));
      for (std::int64_t sec = 1; sec <= windows; ++sec) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point{
            std::chrono::nanoseconds{start + sec * 1'000'000'000}});
        ThreadCpu cpu = ThreadCpu::take();
        const std::uint64_t done = verified.load(std::memory_order_relaxed);
        const std::vector<std::int64_t> server =
            cpu.since(cpu_prev, std::vector<int>(own.begin(), own.end()));
        std::int64_t total = 0;
        for (const std::int64_t ns : server) total += ns;
        const auto replies = static_cast<double>(done - done_prev);
        cpu_rates->total.push_back(replies / (static_cast<double>(total) / 1e9));
        cpu_rates->busiest.push_back(
            replies / (static_cast<double>(*std::max_element(server.begin(), server.end())) / 1e9));
        cpu_prev = std::move(cpu);
        done_prev = done;
      }
    }
    for (auto& t : threads) t.join();
    std::vector<Sample> all;
    for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
    return all;
  }

  /// Sends request k and checks its reply; false on any error.  The reply
  /// clock stops before the check, which then compares bytes only.
  bool send(realm::net::Client& client, std::uint64_t seq, unsigned kind, std::uint64_t which,
            bool trace) {
    Prepared cold;
    const Prepared* p = nullptr;
    static const Prepared stats{MsgType::kStats, {}, {}};
    switch (kind) {
      case kBatch: p = &batch_[which]; break;
      case kMcWarm: p = &warm_[which]; break;
      case kMcCold:
        cold = Prepared{MsgType::kCharacterizeMc, mc_body(kSpecs[which % std::size(kSpecs)], which), {}};
        p = &cold;
        break;
      case kSij: p = &sij_[which]; break;
      default: p = &stats; break;
    }
    const std::int64_t span = trace ? tracer_.open(kKindNames[kind], -1, seq) : -1;
    try {
      const realm::net::Frame f = client.call(p->type, seq, p->body, kTimeoutMs);
      tracer_.close(span);
      return f.type == MsgType::kReplyOk && (p->expect.empty() || f.body == p->expect);
    } catch (const std::exception&) {
      tracer_.close(span);
      return false;
    }
  }

  void summarize(Report& r, const std::vector<Sample>& samples, double wall_s,
                 const CpuRates& cpu_rates, const Counters& d) const {
    std::vector<double> all_ms;
    std::vector<double> late_us;
    std::vector<double> by_kind[kKinds];
    std::vector<double> traced_ms[2];
    std::uint64_t ok = 0;
    for (const Sample& s : samples) {
      ++r.attempted;
      if (!s.ok) continue;
      ++ok;
      const double ms = static_cast<double>(s.latency_ns) / 1e6;
      all_ms.push_back(ms);
      late_us.push_back(static_cast<double>(s.late_ns) / 1e3);
      by_kind[s.kind].push_back(ms * 1e3);
      traced_ms[(s.due_ns / 1'000'000'000) % 2].push_back(ms);
    }
    r.failed = r.attempted - ok;
    if (r.failed > 0) r.fail(std::to_string(r.failed) + " requests failed or timed out");
    r.end_to_end["setup_s"] = r.setup_s;
    r.end_to_end["ops_per_s"] = median(cpu_rates.total);
    r.end_to_end["ops_per_busiest_thread_s"] = median(cpu_rates.busiest);
    r.info["rate_per_s"] = kRate;
    r.info["requests"] = static_cast<double>(samples.size());
    r.info["wall_ops_per_s"] = static_cast<double>(ok) / wall_s;
    r.info["p50_ms"] = percentile(all_ms, 0.50);
    r.info["p99_ms"] = percentile(all_ms, 0.99);
    if (!opt_.trace) return;

    r.layers["serve.p50_ms"] = r.info["p50_ms"];
    r.layers["serve.p99_ms"] = r.info["p99_ms"];
    for (unsigned k = 0; k < kKinds; ++k) {
      const std::string base = std::string{"serve."} + kKindNames[k];
      r.layers[base + ".p50_us"] = percentile(by_kind[k], 0.50);
      r.layers[base + ".p99_us"] = percentile(by_kind[k], 0.99);
    }
    r.layers["serve.generator_late_us_p99"] = percentile(late_us, 0.99);
    const auto hits = static_cast<double>(d[Counter::kStoreHits]);
    const auto misses = static_cast<double>(d[Counter::kStoreMisses]);
    r.layers["campaign.store_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    r.layers["campaign.store_hits"] = hits;
    r.layers["campaign.store_misses"] = misses;
    r.layers["campaign.store_bytes_written"] = static_cast<double>(d[Counter::kStoreBytesWritten]);
    const auto requests = static_cast<double>(d[Counter::kNetRequests]);
    r.layers["net.requests"] = requests;
    r.layers["net.bytes_in_per_req"] =
        requests > 0 ? static_cast<double>(d[Counter::kNetBytesIn]) / requests : 0.0;
    r.layers["net.bytes_out_per_req"] =
        requests > 0 ? static_cast<double>(d[Counter::kNetBytesOut]) / requests : 0.0;
    r.layers["net.backpressure_stalls"] = static_cast<double>(d[Counter::kNetBackpressureStalls]);
    r.layers["net.frame_errors"] = static_cast<double>(d[Counter::kNetFrameErrors]);
    const auto regions = static_cast<double>(d[Counter::kPoolRegions]);
    r.layers["pool.queue_wait_ns_per_region"] =
        regions > 0 ? static_cast<double>(d[Counter::kPoolQueueWaitNs]) / regions : 0.0;
    r.layers["pool.tasks_inline"] = static_cast<double>(d[Counter::kPoolTasksInline]);
    r.layers["pool.regions"] = regions;
    r.layers["core.lut_cache_misses"] = static_cast<double>(d[Counter::kLutCacheMisses]);
    r.layers["core.lut_cache_hits"] = static_cast<double>(d[Counter::kLutCacheHits]);
    r.layers["mult.row_fallback_batches"] = static_cast<double>(d[Counter::kRowFallbackBatches]);
    // Odd seconds of the window record spans, even seconds do not (a window
    // under two seconds has no traced second).
    if (!traced_ms[0].empty() && !traced_ms[1].empty()) {
      r.layers["trace_overhead_pct"] =
          (percentile(traced_ms[1], 0.5) / percentile(traced_ms[0], 0.5) - 1.0) * 100.0;
    }
  }

  const Options& opt_;
  Tracer& tracer_;
  std::string store_path_;
  std::unique_ptr<realm::campaign::ResultStore> store_;
  std::unique_ptr<realm::campaign::CampaignRunner> runner_;
  std::unique_ptr<realm::net::Server> server_;
  std::thread loop_;
  std::vector<realm::net::Client> clients_;
  std::uint64_t setup_seq_ = 0;
  std::vector<Prepared> batch_;
  std::vector<Prepared> warm_;
  std::vector<Prepared> sij_;
};

}  // namespace

Report run_serve_mixed(const Options& opt, Tracer& tracer) {
  ServeMixed s{opt, tracer};
  return s.run();
}

}  // namespace pb
