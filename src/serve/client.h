// Minimal blocking client for the pg_serve protocol, shared by the
// pg_serve tool's client mode and the serve and robust tests. One Client
// is one AF_UNIX connection; request() frames a spec, blocks for the
// response, and hands back the parsed header plus the envelope body. NOT thread-safe -- concurrent load uses one Client
// per thread (connections are cheap; the server multiplexes them onto
// its shared executor anyway).
#pragma once

#include <string>

#include "serve/protocol.h"

namespace pg::serve {

class Client {
 public:
  struct Response {
    ResponseHeader header;
    std::string body;  // response envelope JSON
    [[nodiscard]] bool ok() const { return header.status == "ok"; }
  };

  /// Transport-level retry knobs for the one-shot helpers below.
  struct RetryPolicy {
    std::size_t attempts = 3;          // total tries; 1 = no retry
    std::size_t backoff_ms = 50;       // doubles per retry, capped at 2 s
    std::size_t connect_timeout_ms = 1000;  // per-attempt connect window
    std::size_t read_timeout_ms = 0;   // 0 = block forever
  };

  /// One connect attempt; throws std::runtime_error on failure.
  [[nodiscard]] static Client connect(const std::string& socket_path);
  /// Retry connecting until success or `timeout_ms` elapses (covers the
  /// daemon's startup window in tests and CI).
  [[nodiscard]] static Client connect_retry(const std::string& socket_path,
                                            std::size_t timeout_ms);

  /// One-shot request with transport-level retry: each attempt opens a
  /// FRESH connection (a failed request leaves its old stream
  /// unframed), sends the spec, and blocks for the response. Only
  /// transport failures retry -- connect errors, torn frames, read
  /// timeouts; a structured error response IS a valid answer and
  /// returns immediately. Safe because scenario runs are deterministic
  /// and idempotent. Rethrows the last transport error once
  /// `policy.attempts` is spent.
  [[nodiscard]] static Response request_retry(const std::string& socket_path,
                                              const std::string& spec_text,
                                              const RetryPolicy& policy,
                                              RequestHeader meta = {});
  /// request_retry's twin for the ping health check.
  [[nodiscard]] static Response ping_retry(const std::string& socket_path,
                                           const RetryPolicy& policy);

  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one spec-text request and block for its response. `meta`
  /// carries id/priority/deadline; an empty id gets "req-<n>" from a
  /// process-wide counter; body_bytes is always overwritten.
  Response request(const std::string& spec_text, RequestHeader meta = {});

  /// Send one body-less ping frame and block for the response (an ok
  /// envelope with a {"pong": true} result on a minor>=1 server, a
  /// bad_request error on an older one).
  Response ping(RequestHeader meta = {});

  /// Bound every subsequent read on this connection: past `timeout_ms`
  /// the pending request() / ping() throws a transport error instead of
  /// blocking forever on a wedged server. 0 restores blocking reads.
  void set_read_timeout(std::size_t timeout_ms);

  /// Raw fd, for tests that speak the wire format directly.
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  explicit Client(int fd) : fd_(fd) {}
  int fd_ = -1;
};

}  // namespace pg::serve
