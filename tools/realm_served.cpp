// realm_served — the evaluation server daemon (DESIGN §14).
//
//   realm_served [--port=N | --unix=PATH] [--store=PATH] [--threads=N]
//                [--executors=N] [--max-conns=N] [--max-frame=BYTES]
//                [--idle-timeout-ms=N] [--json=PATH]
//
// Serves the realm-net/v2 protocol on loopback TCP (default; --port=0 picks
// an ephemeral port) or a Unix socket.  With --store the campaign journal
// memoizes every cacheable request: warm hits are answered on the event loop
// from stored bytes, misses compute once and are durably recorded.  SIGINT/
// SIGTERM begin a graceful drain — stop accepting, finish in-flight
// requests, flush replies — after which the process exits 0.  --json writes
// a realm-bench-v3 document (net_* counters, span histograms, server stats)
// on exit.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "realm/campaign/result_store.hpp"
#include "realm/campaign/runner.hpp"
#include "realm/net/server.hpp"
#include "realm/obs/metrics_sink.hpp"
#include "realm/obs/trace.hpp"
#include "parse_u64.hpp"

namespace {

using realm::cli::parse_u64_flag;

realm::net::Server* g_server = nullptr;

void handle_signal(int) {
  // Async-signal-safe: an atomic store plus one write() to the self-pipe.
  if (g_server != nullptr) g_server->request_stop();
}

int usage(int code) {
  std::fprintf(stderr,
               "usage: realm_served [--port=N | --unix=PATH] [--store=PATH]\n"
               "                    [--threads=N] [--executors=N] [--max-conns=N]\n"
               "                    [--max-frame=BYTES] [--idle-timeout-ms=N]\n"
               "                    [--json=PATH]\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  realm::net::ServerOptions opts;
  std::string store_path;
  std::string json_path;
  bool have_port = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    if (arg.rfind("--port=", 0) == 0) {
      opts.tcp_port =
          static_cast<int>(parse_u64_flag("--port", val("--port="), 0, 65535));
      have_port = true;
    } else if (arg.rfind("--unix=", 0) == 0) {
      opts.unix_path = val("--unix=");
      if (opts.unix_path.empty()) {
        std::fprintf(stderr, "bad value for --unix: expected a socket path\n");
        return 2;
      }
    } else if (arg.rfind("--store=", 0) == 0) {
      store_path = val("--store=");
      if (store_path.empty()) {
        std::fprintf(stderr, "bad value for --store: expected a file path\n");
        return 2;
      }
    } else if (arg.rfind("--threads=", 0) == 0) {
      opts.engine_threads = static_cast<int>(
          parse_u64_flag("--threads", val("--threads="), 0, 1u << 16));
    } else if (arg.rfind("--executors=", 0) == 0) {
      opts.executor_threads = static_cast<int>(
          parse_u64_flag("--executors", val("--executors="), 1, 256));
    } else if (arg.rfind("--max-conns=", 0) == 0) {
      opts.max_connections = static_cast<int>(
          parse_u64_flag("--max-conns", val("--max-conns="), 1, 1u << 20));
    } else if (arg.rfind("--max-frame=", 0) == 0) {
      opts.max_frame_bytes = static_cast<std::size_t>(parse_u64_flag(
          "--max-frame", val("--max-frame="), 64, std::uint64_t{1} << 30));
    } else if (arg.rfind("--idle-timeout-ms=", 0) == 0) {
      opts.idle_timeout_ms = static_cast<int>(parse_u64_flag(
          "--idle-timeout-ms", val("--idle-timeout-ms="), 0, 1u << 30));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = val("--json=");
      if (json_path.empty()) {
        std::fprintf(stderr, "bad value for --json: expected a file path\n");
        return 2;
      }
    } else if (arg == "--help") {
      return usage(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return usage(2);
    }
  }
  if (have_port && !opts.unix_path.empty()) {
    std::fprintf(stderr, "--port and --unix are mutually exclusive\n");
    return 2;
  }

  std::unique_ptr<realm::campaign::ResultStore> store;
  std::unique_ptr<realm::campaign::CampaignRunner> runner;
  if (!store_path.empty()) {
    try {
      store = std::make_unique<realm::campaign::ResultStore>(store_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot open --store: %s\n", e.what());
      return 2;
    }
    // resume=true: a stored result answers instead of recomputing — that is
    // the whole point of fronting the store with a server.
    runner = std::make_unique<realm::campaign::CampaignRunner>(store.get(), true);
    opts.campaign = runner.get();
  }

  realm::net::Server server{std::move(opts)};
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot start server: %s\n", e.what());
    return 1;
  }

  g_server = &server;
  struct sigaction sa{};
  sa.sa_handler = handle_signal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  // The readiness line CI and scripts wait for; flushed before serving.
  if (server.port() != 0) {
    std::printf("realm_served listening on 127.0.0.1:%d\n", server.port());
  } else {
    std::printf("realm_served listening\n");
  }
  std::fflush(stdout);

  server.run();

  const realm::net::Server::Stats st = server.stats();
  std::printf(
      "realm_served drained: accepted=%llu requests=%llu warm_hits=%llu "
      "dispatched=%llu frame_errors=%llu drained=%llu\n",
      static_cast<unsigned long long>(st.accepted),
      static_cast<unsigned long long>(st.requests),
      static_cast<unsigned long long>(st.warm_hits),
      static_cast<unsigned long long>(st.dispatched),
      static_cast<unsigned long long>(st.frame_errors),
      static_cast<unsigned long long>(st.drained));

  if (!json_path.empty()) {
    realm::obs::MetricsSink sink{"realm_served"};
    if (store) sink.meta("store", store_path);
    sink.metric("accepted", st.accepted);
    sink.metric("rejected", st.rejected);
    sink.metric("requests", st.requests);
    sink.metric("warm_hits", st.warm_hits);
    sink.metric("dispatched", st.dispatched);
    sink.metric("frame_errors", st.frame_errors);
    sink.metric("replies_dropped", st.replies_dropped);
    sink.metric("drained", st.drained);
    try {
      sink.write(json_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot write --json: %s\n", e.what());
      return 1;
    }
    std::printf("measurements written to %s\n", json_path.c_str());
  }
  return 0;
}
