// First-class sweep axes: grid expansion of a ScenarioSpec.
//
// A spec may carry any number of `sweep` clauses, each naming one spec
// key and the values it takes:
//
//     sweep = epochs=100..500:5      # inclusive range, 5 grid points
//     sweep = seed=1,2,3             # explicit value list
//
// SweepPlan parses the clauses into SweepAxis objects and expands their
// cross product into child specs: child(i) is the base spec with the
// i-th coordinate tuple applied through ScenarioSpec::set (so every
// value is type-checked by the same code path `--set` uses) and its own
// sweep clauses cleared (children are leaves). The engine runs all
// children through one loop on one Executor with one shared cache
// bundle, then merges the per-point results into a single ScenarioResult
// whose table rows carry the axis coordinates.
//
// Clause grammar (parse_sweep_clause):
//
//     <key>=<start>..<stop>[:steps]     numeric range, endpoints included
//     <key>=v1[,v2,...]                 explicit values (any field type)
//
// `steps` defaults to 5 and must be >= 2; integral range values print
// without a decimal point so integer-typed fields accept them. Malformed
// clauses, unknown keys, zero-value lists, and values the named field
// rejects all throw std::invalid_argument at parse/plan time -- never a
// silent default at run time. Keys that are resolved once for the whole
// run (`threads`, the cache envelope, name/description) are rejected as
// axes too: an axis that cannot take effect would only mislabel the grid.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "scenario/spec.h"

namespace pg::scenario {

/// One sweep axis: a spec key plus the ordered value list it takes.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;  // string forms, applied via spec.set
  /// Canonical clause text (ranges keep range form with explicit steps,
  /// lists re-join their values), so to_text round-trips stably.
  std::string clause;
};

/// Parse one clause. Throws std::invalid_argument on malformed syntax,
/// an unknown spec key, steps < 2, or an empty value list.
[[nodiscard]] SweepAxis parse_sweep_clause(const std::string& clause);

class SweepPlan {
 public:
  /// Parse and validate the base spec's sweep clauses. Every axis value
  /// is applied to a scratch spec here, so a value the target field
  /// cannot parse fails at plan time, before any point runs.
  explicit SweepPlan(const ScenarioSpec& base);

  [[nodiscard]] bool empty() const noexcept { return axes_.empty(); }
  [[nodiscard]] const std::vector<SweepAxis>& axes() const noexcept {
    return axes_;
  }
  /// Grid size: the product of the axis lengths (1 when empty).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Axis keys in declaration order (the coordinate column names).
  [[nodiscard]] std::vector<std::string> axis_keys() const;

  /// The (key, value) coordinate tuple of grid point `index`. Points are
  /// ordered row-major: the last declared axis varies fastest.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> coordinates(
      std::size_t index) const;

  /// The base spec with coordinates(index) applied and sweeps cleared.
  [[nodiscard]] ScenarioSpec child(std::size_t index) const;

 private:
  ScenarioSpec base_;
  std::vector<SweepAxis> axes_;
  std::size_t size_ = 1;
};

}  // namespace pg::scenario
