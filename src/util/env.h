// Environment-variable overrides shared by every CLI surface.
//
// The bench wrappers, the scenario engine, and the disk cache all read the
// same PG_* knobs; these helpers are the single parsing point so a knob
// behaves identically everywhere. Unset (or empty) variables yield the
// fallback; a malformed value is a one-line error naming the variable,
// never a silently parsed prefix.
#pragma once

#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <system_error>

namespace pg::util {

/// Unsigned integer knob, e.g. PG_BENCH_INSTANCES. Only a full decimal
/// integer that fits std::size_t is accepted; anything else throws
/// std::invalid_argument.
[[nodiscard]] inline std::size_t env_size(const char* name,
                                          std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::string text(v);
  std::size_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || end != last) {
    throw std::invalid_argument(std::string(name) + "='" + text +
                                "': expected a non-negative decimal integer");
  }
  return value;
}

/// String knob, e.g. PG_CACHE_DIR. Empty and unset both yield the fallback.
[[nodiscard]] inline std::string env_string(const char* name,
                                            const std::string& fallback = "") {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::string(v);
}

}  // namespace pg::util
