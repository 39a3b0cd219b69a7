// Small string helpers shared across the library's parsers and writers.
#pragma once

#include <cctype>
#include <string>
#include <string_view>

namespace pg::util {

/// Copy of `s` with leading/trailing ASCII whitespace removed.
[[nodiscard]] inline std::string trim_whitespace(const std::string& s) {
  std::size_t lo = 0;
  std::size_t hi = s.size();
  while (lo < hi && std::isspace(static_cast<unsigned char>(s[lo]))) ++lo;
  while (hi > lo && std::isspace(static_cast<unsigned char>(s[hi - 1]))) --hi;
  return s.substr(lo, hi - lo);
}

/// Body of a JSON string literal (no surrounding quotes): `"`, `\`, `\n`,
/// `\r` and `\t` get their two-character escapes, other bytes below 0x20
/// become lowercase `\u00XX`, and every other byte passes through. The one
/// escaper behind result JSON, serve envelopes and Chrome traces.
[[nodiscard]] inline std::string json_escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto byte = static_cast<unsigned char>(c);
        if (byte < 0x20) {
          out += "\\u00";
          out.push_back(kHex[byte >> 4]);
          out.push_back(kHex[byte & 0xF]);
        } else {
          out.push_back(c);
        }
      }
    }
  }
  return out;
}

}  // namespace pg::util
