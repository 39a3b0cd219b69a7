// Named scenario catalog: every paper reproduction as a constant
// ScenarioSpec, built once per process and read from no environment
// variable. RequestOptions::resolve() applies `--set` overrides to a
// copy, so `pg_run --scenario <name> --print-spec` shows what will run.
#pragma once

#include <string>
#include <vector>

#include "scenario/spec.h"

namespace pg::scenario {

class ScenarioRegistry {
 public:
  /// The process-wide catalog (immutable after construction).
  [[nodiscard]] static const ScenarioRegistry& instance();

  [[nodiscard]] const std::vector<ScenarioSpec>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] bool contains(const std::string& name) const;
  /// A copy of the named spec. Throws std::invalid_argument on unknown
  /// names.
  [[nodiscard]] ScenarioSpec make(const std::string& name) const;

 private:
  ScenarioRegistry();
  std::vector<ScenarioSpec> entries_;
};

}  // namespace pg::scenario
