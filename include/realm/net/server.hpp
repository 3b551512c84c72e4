// Async evaluation server: a single-threaded event loop serving the
// characterization/synthesis/multiply engines over TCP or Unix sockets.
//
// Architecture (one Server instance = one serving process):
//
//   * The event loop (run()) owns every socket.  It is the only thread that
//     reads, writes, accepts, or touches connection state, so connection
//     bookkeeping needs no locks.  Readiness comes from epoll; the server
//     is Linux-only, and other targets fail to compile.
//   * Decoded requests become jobs on a small executor (worker threads
//     pulling from one queue).  The executor threads are thin dispatchers:
//     the engines they call (Monte-Carlo, exhaustive, synthesis) fan their
//     shards out onto the persistent process-wide num::ThreadPool, so the
//     heavy compute runs exactly where the benches run it.  Finished jobs
//     post their encoded reply to a completion queue and wake the loop
//     through a self-pipe.
//   * With a campaign store attached, cacheable requests (characterize,
//     exhaustive, synthesis) are looked up on the event loop first — a warm
//     hit is answered synchronously from the journal index and never touches
//     the executor or the pool.  Misses compute through the campaign runner,
//     so every cold answer is durably recorded and the reply bytes are the
//     stored payload bytes (warm and cold replies are byte-identical by
//     construction).
//   * Introspection: every accepted frame gets a 64-bit request id that
//     rides the trace context through validation, executor jobs and pool
//     regions (one Chrome-trace lane per request), and every finished
//     request is folded into per-kind rolling SLO windows (obs/slo_window).
//     The kStats request returns those windows plus the counter/gauge
//     catalog and is answered on the loop thread — like ping, it stays
//     responsive while the executor and the pool are saturated.
//
// Flow control and robustness:
//   * Per-connection write buffering with a high-water mark: a connection
//     whose replies back up past write_high_water stops being read (counted
//     in net_backpressure_stalls) until its buffer drains below half the
//     mark — a slow reader throttles itself, never the loop.
//   * Frames above max_frame_bytes are discarded in bounded memory and
//     answered with a typed kFrameTooLarge error; corrupt checksums get
//     kBadChecksum; both keep the connection.  Only a magic mismatch (lost
//     framing) closes a connection, after a best-effort typed error.
//   * At max_connections, new accepts get a best-effort kShuttingDown error
//     and are closed immediately.
//   * Connections idle past idle_timeout_ms (no traffic, nothing in flight)
//     are closed.
//   * request_stop() — async-signal-safe, wired to SIGINT/SIGTERM by
//     realm_served — begins a graceful drain: the listener closes, request
//     reading stops, in-flight jobs finish and their replies flush (counted
//     in net_drained), then run() returns and the process can exit 0.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "realm/campaign/runner.hpp"

namespace realm::net {

struct ServerOptions {
  /// Exactly one transport: a Unix socket path, or loopback TCP when
  /// `unix_path` is empty (`tcp_port` 0 picks an ephemeral port, readable
  /// from Server::port() after start()).
  std::string unix_path;
  int tcp_port = 0;

  int max_connections = 256;
  std::size_t max_frame_bytes = std::size_t{1} << 20;
  std::size_t write_high_water = std::size_t{4} << 20;
  int idle_timeout_ms = 0;  ///< 0 = never time out idle connections

  int executor_threads = 2;  ///< dispatcher threads feeding the shared pool
  int engine_threads = 0;    ///< per-request engine parallelism (0 = all cores)

  /// Optional campaign store front end; must outlive the server.  Build the
  /// runner with resume=true so stored results are served, not recomputed.
  campaign::CampaignRunner* campaign = nullptr;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens (and spawns the executor).  Throws std::runtime_error
  /// on any socket failure; safe to call once.
  void start();

  /// Bound TCP port (after start(); 0 for Unix transport).
  [[nodiscard]] int port() const noexcept;

  /// Runs the event loop until a drain completes.  Call from one thread.
  void run();

  /// Begins graceful drain.  Async-signal-safe (an atomic store and one
  /// write() to the self-pipe); callable from any thread or signal handler.
  void request_stop() noexcept;

  struct Stats {
    std::uint64_t accepted = 0;        ///< connections accepted
    std::uint64_t rejected = 0;        ///< accepts refused at max_connections
    std::uint64_t requests = 0;        ///< request frames answered
    std::uint64_t warm_hits = 0;       ///< answered from the store on the loop
    std::uint64_t dispatched = 0;      ///< jobs sent to the executor
    std::uint64_t frame_errors = 0;    ///< typed error replies sent
    std::uint64_t replies_dropped = 0; ///< job replies to already-gone clients
    std::uint64_t drained = 0;         ///< in-flight replies flushed in drain
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace realm::net
