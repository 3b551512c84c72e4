// Serving-layer load generator (EXPERIMENTS §13).
//
// Two modes:
//
//   * Self-contained (default): starts an in-process server on an ephemeral
//     loopback port with a fresh campaign store, runs a COLD pass (every
//     request computes and is durably recorded) and a WARM pass (identical
//     requests; every reply comes from the store on the event loop), and
//     asserts the two passes' reply bytes are identical.  Between the two
//     passes it polls the `stats` wire request twice and asserts the live
//     SLO windows actually saw the load (net_requests >= requests and
//     monotone, w60 count covers the cold pass, windowed p99 present).
//     Writes
//     bench_out/BENCH_serve.json with req/s, latency percentiles, and the
//     warm-vs-cold speedup.  Exit 1 on any reply mismatch.
//
//   * Connect (--connect=PORT): drives an externally started realm_served —
//     the CI smoke starts the daemon once and runs this twice (cold store,
//     then warm) and compares the two JSON documents' reply_digest /
//     requests_per_s with check_bench_schema.py.
//
// Load shape: --connections client threads; each sends its share of
// --requests Monte-Carlo characterization requests (--serve-samples samples
// each).  Request i carries seed base+i, so every request is a distinct
// campaign unit (no intra-pass dedup) and a repeated pass is fully warm.
// --rate=N paces the *aggregate* open-loop request rate; 0 = closed loop.
// Per-request latency is recorded into log2 histograms (p50/p95/p99).
//
// Determinism: the reply digest folds FNV-1a over every reply body in
// request-index order, so two runs over the same request set must produce
// the same digest regardless of scheduling — the wire-level statement of
// the store's byte-identity invariant.

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "realm/campaign/record.hpp"
#include "realm/campaign/result_store.hpp"
#include "realm/net/client.hpp"
#include "realm/net/protocol.hpp"
#include "realm/net/server.hpp"
#include "realm/obs/histogram.hpp"
#include "realm/obs/metrics_sink.hpp"

using namespace realm;

namespace {

constexpr std::uint64_t kSeedBase = 0x5eed0000u;

struct ServeArgs {
  int connect_port = 0;  ///< 0 = self-contained mode
  std::uint64_t requests = 64;
  int connections = 4;
  double rate = 0.0;  ///< aggregate open-loop req/s; 0 = closed loop
  std::uint64_t serve_samples = std::uint64_t{1} << 18;
};

/// Splits the serve-specific flags out of argv and hands the rest to
/// bench::Args::parse (which is strict about unknown flags).
ServeArgs parse_serve_args(int& argc, char** argv) {
  ServeArgs s;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    if (arg.rfind("--connect=", 0) == 0) {
      s.connect_port = static_cast<int>(
          cli::parse_u64_flag("--connect", val("--connect="), 1, 65535));
    } else if (arg.rfind("--requests=", 0) == 0) {
      s.requests = cli::parse_u64_flag("--requests", val("--requests="), 1,
                                       std::uint64_t{1} << 24);
    } else if (arg.rfind("--connections=", 0) == 0) {
      s.connections = static_cast<int>(cli::parse_u64_flag(
          "--connections", val("--connections="), 1, 1024));
    } else if (arg.rfind("--rate=", 0) == 0) {
      s.rate = static_cast<double>(
          cli::parse_u64_flag("--rate", val("--rate="), 1, 10'000'000));
    } else if (arg.rfind("--serve-samples=", 0) == 0) {
      s.serve_samples = cli::parse_u64_flag(
          "--serve-samples", val("--serve-samples="), 1, std::uint64_t{1} << 26);
    } else {
      rest.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(rest.size());
  for (int i = 0; i < argc; ++i) argv[i] = rest[static_cast<std::size_t>(i)];
  return s;
}

std::string mc_request_body(std::uint64_t index, std::uint64_t samples) {
  return campaign::PayloadWriter{}
      .field_str("spec", "realm:m=16,t=4")
      .field("n", std::int64_t{16})
      .field("samples", samples)
      .field("seed", kSeedBase + index)
      .str();
}

struct PassResult {
  double seconds = 0.0;
  double requests_per_s = 0.0;
  obs::HistogramSnapshot latency_ns;
  std::vector<std::uint64_t> reply_hashes;  ///< by request index
  std::uint64_t digest = 0;
  std::uint64_t errors = 0;
};

/// Runs one full pass of `args.requests` requests over `args.connections`
/// client threads against the given port.
PassResult run_pass(const ServeArgs& args, int port, const char* label) {
  PassResult r;
  r.reply_hashes.assign(args.requests, 0);
  std::vector<obs::HistogramSnapshot> hists(
      static_cast<std::size_t>(args.connections));
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> next_index{0};

  const auto t0 = std::chrono::steady_clock::now();
  // Open-loop pacing: request k (globally) is released at k/rate seconds.
  // Each thread claims indices from a shared counter, so the aggregate
  // release schedule holds regardless of per-thread progress.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(args.connections));
  for (int t = 0; t < args.connections; ++t) {
    threads.emplace_back([&, t] {
      try {
        net::Client client;
        client.connect_tcp(port);
        for (;;) {
          const std::uint64_t i =
              next_index.fetch_add(1, std::memory_order_relaxed);
          if (i >= args.requests) return;
          if (args.rate > 0.0) {
            const auto release =
                t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(
                             static_cast<double>(i) / args.rate));
            std::this_thread::sleep_until(release);
          }
          const std::string body = mc_request_body(i, args.serve_samples);
          const auto s0 = std::chrono::steady_clock::now();
          const net::Frame reply =
              client.call(net::MsgType::kCharacterizeMc, i, body, 120000);
          const auto s1 = std::chrono::steady_clock::now();
          const auto ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(s1 - s0);
          hists[static_cast<std::size_t>(t)].record(
              static_cast<std::uint64_t>(ns.count()));
          if (reply.type != net::MsgType::kReplyOk) {
            errors.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          r.reply_hashes[i] = campaign::fnv1a64(reply.body);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s pass, connection %d: %s\n", label, t, e.what());
        errors.fetch_add(1000000, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto t1 = std::chrono::steady_clock::now();

  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.requests_per_s =
      r.seconds > 0.0 ? static_cast<double>(args.requests) / r.seconds : 0.0;
  for (const auto& h : hists) r.latency_ns.merge(h);
  r.errors = errors.load(std::memory_order_relaxed);
  // Order-independent of scheduling: fold the per-index hashes in index
  // order into one digest.
  std::string folded;
  folded.reserve(r.reply_hashes.size() * 16);
  char hex[17];
  for (const std::uint64_t h : r.reply_hashes) {
    std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
    folded += hex;
  }
  r.digest = campaign::fnv1a64(folded);
  return r;
}

void describe_pass(obs::MetricsSink& sink, const char* prefix, const PassResult& r) {
  const auto us = [](std::uint64_t ns) {
    return static_cast<double>(ns) / 1000.0;
  };
  sink.metric(std::string{prefix} + "_seconds", r.seconds);
  sink.metric(std::string{prefix} + "_requests_per_s", r.requests_per_s);
  sink.metric(std::string{prefix} + "_latency_p50_us", us(r.latency_ns.percentile(0.50)));
  sink.metric(std::string{prefix} + "_latency_p95_us", us(r.latency_ns.percentile(0.95)));
  sink.metric(std::string{prefix} + "_latency_p99_us", us(r.latency_ns.percentile(0.99)));
  sink.metric(std::string{prefix} + "_latency_max_us", us(r.latency_ns.max));
}

std::string digest_hex(std::uint64_t digest) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
  return std::string{hex};
}

/// One parsed `stats` snapshot from the in-process server.
struct LiveStats {
  campaign::PayloadReader reader;

  explicit LiveStats(const std::string& body) : reader{body} {}

  [[nodiscard]] double num(const std::string& name) const {
    return std::strtod(reader.get_string(name).c_str(), nullptr);
  }
  [[nodiscard]] bool has(const std::string& name) const {
    for (const auto& [k, v] : reader.fields()) {
      if (k == name) return true;
    }
    return false;
  }
};

[[nodiscard]] LiveStats poll_stats(int port) {
  net::Client client;
  client.connect_tcp(port);
  const net::Frame reply = client.call(net::MsgType::kStats, 1, {});
  if (reply.type != net::MsgType::kReplyOk) {
    throw std::runtime_error("stats request failed");
  }
  return LiveStats{reply.body};
}

/// Live-stats assertion pass (runs between the cold and warm passes while
/// the request counters are fresh in the w60 window): the stats request
/// must reflect at least the cold pass's load, stay monotone between two
/// polls, and publish windowed p99 latency for the hot request kind.
[[nodiscard]] bool check_live_stats(obs::MetricsSink& sink, int port,
                                    std::uint64_t requests) {
  bool ok = true;
  const LiveStats a = poll_stats(port);
  const LiveStats b = poll_stats(port);

  // net_requests counts every accepted frame, so after `requests` MC calls
  // plus our own stats poll it must be at least requests + 1, and the
  // second poll (one more stats frame in) must be strictly greater.
  const double req_a = a.num("counter.net_requests");
  const double req_b = b.num("counter.net_requests");
  if (req_a < static_cast<double>(requests) + 1.0) {
    std::fprintf(stderr,
                 "FAIL: stats counter.net_requests %.0f < %" PRIu64
                 " requests sent\n",
                 req_a, requests + 1);
    ok = false;
  }
  if (req_b <= req_a) {
    std::fprintf(stderr,
                 "FAIL: stats counter.net_requests not monotone (%.0f -> %.0f)\n",
                 req_a, req_b);
    ok = false;
  }

  // The cold pass just finished, so the 60 s SLO window for the MC kind
  // must hold every one of its requests and publish a latency estimate.
  const double w60 = b.num("slo.characterize_mc.w60.count");
  if (w60 < static_cast<double>(requests)) {
    std::fprintf(stderr,
                 "FAIL: slo.characterize_mc.w60.count %.0f < %" PRIu64 "\n",
                 w60, requests);
    ok = false;
  }
  if (!b.has("slo.characterize_mc.w60.p99_us")) {
    std::fprintf(stderr, "FAIL: stats body is missing slo p99\n");
    ok = false;
  }

  sink.metric("live_stats_net_requests", req_b);
  sink.metric("live_stats_w60_count", w60);
  sink.metric("live_stats_w60_p99_us", b.num("slo.characterize_mc.w60.p99_us"));
  sink.metric("live_stats_ok", ok);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  ServeArgs serve = parse_serve_args(argc, argv);
  const bench::Args args = bench::Args::parse(argc, argv);

  obs::MetricsSink sink{"bench_serve"};
  sink.meta("requests", serve.requests);
  sink.meta("connections", serve.connections);
  sink.meta("rate", serve.rate);
  sink.meta("serve_samples", serve.serve_samples);
  sink.meta("threads", args.threads);

  if (serve.connect_port != 0) {
    // Connect mode: one pass against an external daemon; warm/cold meaning
    // comes from the daemon's store state, which the CI smoke controls.
    sink.meta("mode", "connect");
    const PassResult pass = run_pass(serve, serve.connect_port, "connect");
    if (pass.errors != 0) {
      std::fprintf(stderr, "connect pass saw %" PRIu64 " errors\n", pass.errors);
      return 1;
    }
    describe_pass(sink, "connect", pass);
    sink.metric("requests_per_s", pass.requests_per_s);
    sink.metric("reply_digest", digest_hex(pass.digest));
    std::printf("connect: %" PRIu64 " requests in %.3fs (%.1f req/s), digest %s\n",
                serve.requests, pass.seconds, pass.requests_per_s,
                digest_hex(pass.digest).c_str());
    bench::write_outputs(args, sink, "bench_out/BENCH_serve.json");
    return 0;
  }

  // Self-contained mode: in-process server over a fresh store.
  sink.meta("mode", "self-contained");
  const std::string store_path =
      args.store_path.empty() ? "bench_out/serve_store.journal" : args.store_path;
  bench::Args::validate_store_path(store_path);
  // A fresh store is what makes pass 1 cold; --resume keeps an existing
  // journal (then pass 1 is only cold for units it does not already hold).
  if (!args.resume) std::remove(store_path.c_str());

  campaign::ResultStore store{store_path};
  campaign::CampaignRunner runner{&store, true};

  net::ServerOptions opts;
  opts.tcp_port = 0;
  opts.engine_threads = args.threads;
  opts.campaign = &runner;
  net::Server server{std::move(opts)};
  server.start();
  std::thread loop{[&] { server.run(); }};
  const int port = server.port();
  std::printf("in-process server on 127.0.0.1:%d, store %s\n", port,
              store_path.c_str());

  const PassResult cold = run_pass(serve, port, "cold");
  const bool live_ok = check_live_stats(sink, port, serve.requests);
  const PassResult warm = run_pass(serve, port, "warm");

  server.request_stop();
  loop.join();

  const net::Server::Stats st = server.stats();
  const double speedup = cold.requests_per_s > 0.0
                             ? warm.requests_per_s / cold.requests_per_s
                             : 0.0;

  bool ok = cold.errors == 0 && warm.errors == 0 && live_ok;
  if (cold.digest != warm.digest) {
    std::fprintf(stderr, "FAIL: warm reply digest %s != cold %s\n",
                 digest_hex(warm.digest).c_str(), digest_hex(cold.digest).c_str());
    ok = false;
  }
  for (std::uint64_t i = 0; i < serve.requests; ++i) {
    if (cold.reply_hashes[i] != warm.reply_hashes[i]) {
      std::fprintf(stderr, "FAIL: request %" PRIu64 " reply differs warm vs cold\n",
                   i);
      ok = false;
      break;
    }
  }
  if (st.warm_hits < serve.requests) {
    std::fprintf(stderr,
                 "FAIL: only %" PRIu64 " warm hits for %" PRIu64
                 " warm requests (store not serving)\n",
                 st.warm_hits, serve.requests);
    ok = false;
  }

  describe_pass(sink, "cold", cold);
  describe_pass(sink, "warm", warm);
  sink.metric("warm_speedup", speedup);
  sink.metric("reply_digest", digest_hex(cold.digest));
  sink.metric("server_warm_hits", st.warm_hits);
  sink.metric("server_dispatched", st.dispatched);
  sink.metric("replies_identical", ok);

  std::printf("cold: %.1f req/s   warm: %.1f req/s   speedup %.1fx   digest %s\n",
              cold.requests_per_s, warm.requests_per_s, speedup,
              digest_hex(cold.digest).c_str());
  bench::write_outputs(args, sink, "bench_out/BENCH_serve.json");
  if (!ok) {
    std::fprintf(stderr, "bench_serve: byte-identity check failed\n");
    return 1;
  }
  return 0;
}
