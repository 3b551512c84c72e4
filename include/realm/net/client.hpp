// Blocking client for the realm-net/v2 serving protocol.
//
// One Client owns one connected socket.  It is intentionally synchronous —
// the load generator gets concurrency by opening many clients, and the tests
// want deterministic request/reply ordering.  send_raw() exists so tests can
// write torn, corrupt, or oversized byte sequences that the typed API could
// never produce.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "realm/net/protocol.hpp"

namespace realm::net {

/// Thrown by recv_reply/call when the poll deadline passes with no complete
/// reply frame.  A distinct type because callers treat it differently from a
/// corrupt stream or a closed socket: the connection is still synchronized
/// (no bytes were consumed past a frame boundary), so a load generator can
/// count it and move on where a framing error must reconnect.  Each throw is
/// counted under the net_client_timeouts counter.
class TimeoutError : public std::runtime_error {
 public:
  explicit TimeoutError(const std::string& what) : std::runtime_error{what} {}
};

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects to a realm_served Unix socket.  Throws std::runtime_error on
  /// failure.
  void connect_unix(const std::string& path);

  /// Connects to a loopback TCP port.  Throws std::runtime_error on failure.
  void connect_tcp(int port);

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Writes one request frame (blocking until fully written).
  void send_request(MsgType type, std::uint64_t seq, std::string_view body);

  /// Writes arbitrary bytes — the test hook for malformed input.
  void send_raw(std::string_view bytes);

  /// Blocks until one complete frame arrives; throws TimeoutError when
  /// timeout_ms > 0 expires first, std::runtime_error on EOF or a socket
  /// error.
  [[nodiscard]] Frame recv_reply(int timeout_ms = 10000);

  /// send_request + recv_reply; throws if the reply's seq is not `seq`.
  [[nodiscard]] Frame call(MsgType type, std::uint64_t seq, std::string_view body,
                           int timeout_ms = 10000);

  /// Closes the socket (idempotent).
  void close() noexcept;

  /// Half-closes the write side; the server sees EOF but can still reply.
  void shutdown_write() noexcept;

 private:
  int fd_ = -1;
  FrameDecoder decoder_{std::size_t{64} << 20};  // trust replies; cap at 64 MiB
};

}  // namespace realm::net
