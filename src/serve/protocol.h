// Wire protocol for the resident scenario service (pg_serve).
//
// A request is one text header line followed by a raw ScenarioSpec body:
//
//     PGSERVE/<major>.<minor> req id=<id> len=<n> [priority=<p>] [deadline_ms=<d>]\n
//     <n bytes of key=value spec text>
//
// and a response is one header line followed by a JSON envelope body:
//
//     PGSERVE/<major>.<minor> rsp id=<id> status=<ok|error> len=<n>\n
//     {"schema_version": ..., "request_id": ..., "status": "ok", "result": {...}}
//
// Versioning contract: `major` names the framing itself -- a server
// rejects a mismatched major with a structured `unsupported_protocol`
// error (it can still frame the reply, because the header grammar is
// version-prefixed). `minor` only ever ADDS header keys; parsers ignore
// keys they do not know, so old servers interoperate with newer-minor
// clients. kSchemaVersion is the one number covering every JSON artifact
// the project emits -- the result sink, the metrics snapshot and the
// response envelope all quote it -- and follows the result sink's
// grow-only rule: members are only added at a fixed version; a bump
// means something was renamed, retyped, or removed.
//
// Scheduling: `priority` is the request's nesting depth in the server's
// admission queue -- the same convention as the runtime's depth-tagged
// task scheduling, where depth 0 is the outermost work and LOWER values
// are served first (FIFO among equals). `deadline_ms` bounds queue wait:
// a request still queued past its deadline completes with a
// `deadline_exceeded` error instead of running.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace pg::serve {

/// Framing major version: reject on mismatch.
inline constexpr int kProtocolMajor = 1;
/// Framing minor version: additive header keys/frame kinds only.
/// History: 1 added the body-less `ping` health-check frame.
inline constexpr int kProtocolMinor = 1;
/// Schema number shared by every JSON artifact (result sink, metrics
/// snapshot, response envelope). Grow-only.
inline constexpr int kSchemaVersion = 1;

/// Longest accepted header line (either direction), newline included.
inline constexpr std::size_t kMaxHeaderBytes = 4096;
/// Longest accepted request id ([A-Za-z0-9._-]).
inline constexpr std::size_t kMaxRequestIdBytes = 64;

struct RequestHeader {
  int major = kProtocolMajor;
  int minor = kProtocolMinor;
  std::string request_id;
  std::size_t priority = 0;      // lower = served earlier
  std::uint64_t deadline_ms = 0; // 0 = no deadline
  std::size_t body_bytes = 0;
};

struct ResponseHeader {
  int major = kProtocolMajor;
  int minor = kProtocolMinor;
  std::string request_id;
  std::string status;  // "ok" | "error"
  std::size_t body_bytes = 0;
};

/// Render one request/response header line (trailing '\n' included).
[[nodiscard]] std::string format_request_header(const RequestHeader& header);
[[nodiscard]] std::string format_response_header(const ResponseHeader& header);

/// Parse a header line (with or without the trailing '\n'). Unknown
/// key=value tokens are ignored (minor-version growth); a malformed
/// line, bad id charset, or wrong frame kind throws
/// std::invalid_argument. An UNSUPPORTED major still parses -- the
/// caller decides how to reject it, and needs `len` to resync.
[[nodiscard]] RequestHeader parse_request_header(const std::string& line);
[[nodiscard]] ResponseHeader parse_response_header(const std::string& line);

/// The frame-kind token ("req", "rsp", "ping", ...) of a header line, or
/// "" when the line has no second token -- lets the server dispatch on
/// the kind before committing to a full parse.
[[nodiscard]] std::string frame_kind(const std::string& line);

/// Ping frames (minor 1, additive): the body-less health-check line
///
///     PGSERVE/<major>.<minor> ping id=<id>\n
///
/// answered with a normal rsp frame whose ok envelope body is a small
/// `{"pong": true}` result (the envelope itself quotes the server's
/// protocol and schema versions). A minor-0 server answers a ping with
/// its usual `bad_request` error -- still a well-formed response frame,
/// so probes against old servers degrade to "reachable but no ping
/// support" instead of hanging. parse_ping_header returns a
/// RequestHeader with body_bytes == 0; only id= is required.
[[nodiscard]] std::string format_ping_header(const std::string& request_id);
[[nodiscard]] RequestHeader parse_ping_header(const std::string& line);

/// Response envelope bodies. `result_json` must be a complete JSON
/// document (the JSON result sink's output); it is embedded verbatim.
[[nodiscard]] std::string make_ok_envelope(const std::string& request_id,
                                           const std::string& result_json);
[[nodiscard]] std::string make_error_envelope(const std::string& request_id,
                                              const std::string& code,
                                              const std::string& message);

// ---- fd-level framing helpers (shared by server, client, tools) ------

/// Write all of `data`; throws std::runtime_error on error (writes use
/// MSG_NOSIGNAL on sockets, so a dead peer is an exception, not SIGPIPE).
void write_all(int fd, const char* data, std::size_t size);

/// Read exactly `size` bytes. Returns false on clean EOF at byte 0;
/// throws on a mid-buffer EOF or error.
[[nodiscard]] bool read_exact(int fd, char* data, std::size_t size);

/// Read up to '\n' (consumed, not returned). Returns false on clean EOF
/// at byte 0; throws on mid-line EOF, error, or a line past `max` bytes.
[[nodiscard]] bool read_line(int fd, std::string& line, std::size_t max);

}  // namespace pg::serve
