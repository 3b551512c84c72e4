// realm_top — live monitor for a running realm_served.
//
//   realm_top (--unix PATH | --port N) [--interval-ms M]
//   realm_top (--unix PATH | --port N) --once [--json] [--out FILE]
//
// The interactive mode polls the `stats` wire request once per interval and
// redraws a per-request-type table: request rate, p50/p95/p99 latency,
// error and warm-hit percentages over the 10 s window, plus process-level
// health (uptime, RSS, connections, executor queue depth).  Because `stats`
// is answered on the server's loop thread, the display stays live even when
// every executor and pool thread is pinned by multi-second jobs — that is
// the whole point of the tool.
//
// --once polls a single snapshot and exits; with --json it emits a
// realm-bench-v3 document (MetricsSink) whose metrics section is the
// flattened stats catalog (counter.* -> bare names, slo.a.b.c ->
// slo_a_b_c), so check_bench_schema.py validates it and its --diff mode
// compares two snapshots.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "realm/campaign/record.hpp"
#include "realm/net/client.hpp"
#include "realm/obs/metrics_sink.hpp"
#include "parse_u64.hpp"

namespace {

using realm::cli::parse_u64_flag;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: realm_top (--unix PATH | --port N) [--interval-ms M]\n"
               "       realm_top (--unix PATH | --port N) --once [--json] "
               "[--out FILE]\n");
  return 2;
}

struct Args {
  std::string unix_path;
  int port = 0;
  int interval_ms = 1000;
  bool once = false;
  bool json = false;
  std::string out;  // empty = stdout
};

[[nodiscard]] bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--unix" && i + 1 < argc) {
      a.unix_path = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      a.port = static_cast<int>(parse_u64_flag("--port", argv[++i], 1, 65535));
    } else if (arg == "--interval-ms" && i + 1 < argc) {
      a.interval_ms =
          static_cast<int>(parse_u64_flag("--interval-ms", argv[++i], 50, 60000));
    } else if (arg == "--once") {
      a.once = true;
    } else if (arg == "--json") {
      a.json = true;
    } else if (arg == "--out" && i + 1 < argc) {
      a.out = argv[++i];
    } else {
      std::fprintf(stderr, "realm_top: unknown argument '%s'\n", arg.c_str());
      return false;
    }
  }
  return !a.unix_path.empty() || a.port != 0;
}

/// "slo.ping.w10.count" -> "slo_ping_w10_count"; "counter.net_requests" ->
/// "net_requests" (counters/gauges keep their catalog names, which are
/// already snake_case and collision-free).
[[nodiscard]] std::string flat_metric_name(const std::string& field) {
  std::string name = field;
  if (name.rfind("counter.", 0) == 0) name.erase(0, std::strlen("counter."));
  if (name.rfind("gauge.", 0) == 0) name.erase(0, std::strlen("gauge."));
  for (char& ch : name) {
    if (ch == '.' || ch == '-') ch = '_';
  }
  return name;
}

/// One polled snapshot, parsed: raw fields plus typed accessors.
struct Snapshot {
  realm::campaign::PayloadReader reader;

  explicit Snapshot(const std::string& body) : reader{body} {}

  [[nodiscard]] double num(const std::string& name) const {
    // Stats values are u64 decimals or %a hex-floats; strtod reads both.
    return std::strtod(reader.get_string(name).c_str(), nullptr);
  }
};

[[nodiscard]] Snapshot poll(realm::net::Client& client) {
  const realm::net::Frame reply =
      client.call(realm::net::MsgType::kStats, 1, {});
  if (reply.type != realm::net::MsgType::kReplyOk) {
    const realm::net::ErrorReply err = realm::net::parse_error(reply.body);
    throw std::runtime_error(std::string{"stats error "} +
                             realm::net::error_code_name(err.code) + ": " +
                             err.message);
  }
  return Snapshot{reply.body};
}

void render_table(const Snapshot& s, bool clear) {
  // Home + clear-to-end keeps the redraw flicker-free on every common
  // terminal; --once prints plainly so output can be piped.
  if (clear) std::printf("\033[H\033[J");
  std::printf(
      "realm_top — uptime %.0f s · rss %.1f MiB · conns %.0f · queue %.0f · "
      "in-flight %.0f · requests %.0f\n\n",
      s.num("uptime_s"), s.num("rss_kb") / 1024.0, s.num("connections"),
      s.num("queue_depth"), s.num("jobs_in_flight"),
      s.num("counter.net_requests"));
  std::printf("%-24s %9s %9s %9s %9s %7s %7s\n", "request type (w10)", "req/s",
              "p50 ms", "p95 ms", "p99 ms", "err %", "warm %");
  for (const realm::net::MsgType kind : realm::net::kRequestKinds) {
    const std::string p =
        std::string{"slo."} + realm::net::request_kind_name(kind) + ".w10.";
    const double count = s.num(p + "count");
    std::printf("%-24s %9.1f %9.3f %9.3f %9.3f %7.2f %7.2f\n",
                realm::net::request_kind_name(kind), count / 10.0,
                s.num(p + "p50_us") / 1e3, s.num(p + "p95_us") / 1e3,
                s.num(p + "p99_us") / 1e3, s.num(p + "err_pct"),
                s.num(p + "warm_pct"));
  }
  std::fflush(stdout);
}

int emit_json(const Snapshot& s, const std::string& out) {
  realm::obs::MetricsSink sink{"realm_top"};
  sink.meta("source", "stats wire request");
  for (const auto& [name, value] : s.reader.fields()) {
    const std::string key = flat_metric_name(name);
    // Integer-looking values stay integers in the JSON (counters, counts);
    // everything else rides as double.
    if (value.find_first_of(".xXpP") == std::string::npos) {
      sink.metric(key, static_cast<unsigned long long>(
                           std::strtoull(value.c_str(), nullptr, 10)));
    } else {
      sink.metric(key, std::strtod(value.c_str(), nullptr));
    }
  }
  if (out.empty()) {
    std::fputs(sink.to_json().c_str(), stdout);
    std::fputc('\n', stdout);
  } else {
    sink.write(out);
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  try {
    realm::net::Client client;
    if (!args.unix_path.empty()) {
      client.connect_unix(args.unix_path);
    } else {
      client.connect_tcp(args.port);
    }
    if (args.once) {
      const Snapshot s = poll(client);
      if (args.json) return emit_json(s, args.out);
      render_table(s, /*clear=*/false);
      return 0;
    }
    while (g_stop == 0) {
      render_table(poll(client), /*clear=*/true);
      std::this_thread::sleep_for(std::chrono::milliseconds{args.interval_ms});
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "realm_top: %s\n", e.what());
    return 1;
  }
  return 0;
}
