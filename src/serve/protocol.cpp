#include "serve/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/error.h"
#include "util/strings.h"

namespace pg::serve {

namespace {

using util::json_escape;

bool valid_request_id(const std::string& id) {
  if (id.empty() || id.size() > kMaxRequestIdBytes) return false;
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  PG_CHECK(!text.empty(), "serve header: empty " + what);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  PG_CHECK(errno == 0 && end != nullptr && *end == '\0',
           "serve header: bad " + what + " '" + text + "'");
  return static_cast<std::uint64_t>(v);
}

/// Parses "PGSERVE/<major>.<minor>" and the frame-kind token; returns the
/// remaining k=v tokens.
struct FramePrefix {
  int major = 0;
  int minor = 0;
  std::vector<std::string> pairs;
};

FramePrefix parse_prefix(const std::string& line, const char* kind) {
  auto tokens = split_tokens(line);
  PG_CHECK(tokens.size() >= 2, "serve header: truncated line");
  const std::string& magic = tokens[0];
  PG_CHECK(magic.rfind("PGSERVE/", 0) == 0,
           "serve header: expected PGSERVE/<major>.<minor>, got '" + magic +
               "'");
  const std::string version = magic.substr(8);
  const std::size_t dot = version.find('.');
  PG_CHECK(dot != std::string::npos && dot > 0 && dot + 1 < version.size(),
           "serve header: bad version '" + version + "'");
  FramePrefix out;
  out.major = static_cast<int>(
      parse_u64(version.substr(0, dot), "major version"));
  out.minor = static_cast<int>(
      parse_u64(version.substr(dot + 1), "minor version"));
  PG_CHECK(tokens[1] == kind, "serve header: expected a '" +
                                  std::string(kind) + "' frame, got '" +
                                  tokens[1] + "'");
  out.pairs.assign(tokens.begin() + 2, tokens.end());
  return out;
}

/// Splits one "key=value" token; returns false (skipping it) only for
/// well-formed tokens with unknown keys -- handled by the callers.
std::pair<std::string, std::string> split_pair(const std::string& token) {
  const std::size_t eq = token.find('=');
  PG_CHECK(eq != std::string::npos && eq > 0,
           "serve header: expected key=value, got '" + token + "'");
  return {token.substr(0, eq), token.substr(eq + 1)};
}

std::string envelope_prefix(const std::string& request_id,
                            const char* status) {
  std::ostringstream out;
  out << "{\n  \"schema_version\": " << kSchemaVersion << ",\n"
      << "  \"protocol\": {\"major\": " << kProtocolMajor
      << ", \"minor\": " << kProtocolMinor << "},\n"
      << "  \"request_id\": \"" << json_escape(request_id) << "\",\n"
      << "  \"status\": \"" << status << "\",\n";
  return out.str();
}

}  // namespace

std::string format_request_header(const RequestHeader& header) {
  PG_CHECK(valid_request_id(header.request_id),
           "serve: request id must be 1-" +
               std::to_string(kMaxRequestIdBytes) +
               " chars of [A-Za-z0-9._-], got '" + header.request_id + "'");
  std::ostringstream out;
  out << "PGSERVE/" << header.major << "." << header.minor << " req id="
      << header.request_id << " len=" << header.body_bytes;
  if (header.priority != 0) out << " priority=" << header.priority;
  if (header.deadline_ms != 0) out << " deadline_ms=" << header.deadline_ms;
  out << "\n";
  return out.str();
}

std::string format_response_header(const ResponseHeader& header) {
  std::ostringstream out;
  out << "PGSERVE/" << header.major << "." << header.minor << " rsp id="
      << (header.request_id.empty() ? std::string("-") : header.request_id)
      << " status=" << header.status << " len=" << header.body_bytes << "\n";
  return out.str();
}

RequestHeader parse_request_header(const std::string& line) {
  const FramePrefix prefix = parse_prefix(line, "req");
  RequestHeader header;
  header.major = prefix.major;
  header.minor = prefix.minor;
  bool have_id = false;
  bool have_len = false;
  for (const std::string& token : prefix.pairs) {
    const auto [key, value] = split_pair(token);
    if (key == "id") {
      PG_CHECK(valid_request_id(value),
               "serve header: bad request id '" + value + "'");
      header.request_id = value;
      have_id = true;
    } else if (key == "len") {
      header.body_bytes = static_cast<std::size_t>(parse_u64(value, "len"));
      have_len = true;
    } else if (key == "priority") {
      header.priority = static_cast<std::size_t>(parse_u64(value, "priority"));
    } else if (key == "deadline_ms") {
      header.deadline_ms = parse_u64(value, "deadline_ms");
    }
    // Unknown keys: ignored (a newer minor version added them).
  }
  PG_CHECK(have_id && have_len, "serve header: id= and len= are required");
  return header;
}

ResponseHeader parse_response_header(const std::string& line) {
  const FramePrefix prefix = parse_prefix(line, "rsp");
  ResponseHeader header;
  header.major = prefix.major;
  header.minor = prefix.minor;
  bool have_len = false;
  for (const std::string& token : prefix.pairs) {
    const auto [key, value] = split_pair(token);
    if (key == "id") {
      header.request_id = value == "-" ? std::string() : value;
    } else if (key == "status") {
      header.status = value;
    } else if (key == "len") {
      header.body_bytes = static_cast<std::size_t>(parse_u64(value, "len"));
      have_len = true;
    }
  }
  PG_CHECK(have_len && !header.status.empty(),
           "serve header: status= and len= are required");
  return header;
}

std::string frame_kind(const std::string& line) {
  const auto tokens = split_tokens(line);
  return tokens.size() >= 2 ? tokens[1] : std::string();
}

std::string format_ping_header(const std::string& request_id) {
  PG_CHECK(valid_request_id(request_id),
           "serve: request id must be 1-" +
               std::to_string(kMaxRequestIdBytes) +
               " chars of [A-Za-z0-9._-], got '" + request_id + "'");
  std::ostringstream out;
  out << "PGSERVE/" << kProtocolMajor << "." << kProtocolMinor
      << " ping id=" << request_id << "\n";
  return out.str();
}

RequestHeader parse_ping_header(const std::string& line) {
  const FramePrefix prefix = parse_prefix(line, "ping");
  RequestHeader header;
  header.major = prefix.major;
  header.minor = prefix.minor;
  header.body_bytes = 0;
  bool have_id = false;
  for (const std::string& token : prefix.pairs) {
    const auto [key, value] = split_pair(token);
    if (key == "id") {
      PG_CHECK(valid_request_id(value),
               "serve header: bad request id '" + value + "'");
      header.request_id = value;
      have_id = true;
    }
    // Unknown keys: ignored (a newer minor version added them).
  }
  PG_CHECK(have_id, "serve header: id= is required");
  return header;
}

std::string make_ok_envelope(const std::string& request_id,
                             const std::string& result_json) {
  std::string result = result_json;
  while (!result.empty() && (result.back() == '\n' || result.back() == ' ')) {
    result.pop_back();
  }
  std::string out = envelope_prefix(request_id, "ok");
  out += "  \"result\": ";
  out += result;
  out += "\n}\n";
  return out;
}

std::string make_error_envelope(const std::string& request_id,
                                const std::string& code,
                                const std::string& message) {
  std::string out = envelope_prefix(request_id, "error");
  out += "  \"error\": {\"code\": \"" + json_escape(code) +
         "\", \"message\": \"" + json_escape(message) + "\"}\n}\n";
  return out;
}

void write_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("serve: write failed: ") +
                               std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

bool read_exact(int fd, char* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("serve: read failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0) return false;
      throw std::runtime_error("serve: connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_line(int fd, std::string& line, std::size_t max) {
  line.clear();
  char c = 0;
  for (;;) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("serve: read failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      if (line.empty()) return false;
      throw std::runtime_error("serve: connection closed mid-header");
    }
    if (c == '\n') return true;
    line.push_back(c);
    if (line.size() > max) {
      throw std::runtime_error("serve: header line exceeds " +
                               std::to_string(max) + " bytes");
    }
  }
}

}  // namespace pg::serve
