// Environment-variable knobs: PG_CACHE_DIR (the disk payoff cache) and
// PG_FAULTS (fault injection). Neither changes a result, which is why
// they may come from the environment; everything that does lives in the
// ScenarioSpec.
#pragma once

#include <cstdlib>
#include <string>

namespace pg::util {

/// String knob, e.g. PG_CACHE_DIR. Empty and unset both yield the fallback.
[[nodiscard]] inline std::string env_string(const char* name,
                                            const std::string& fallback = "") {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::string(v);
}

}  // namespace pg::util
