// One source of truth for resolving "what should actually run" from the
// three places a scenario can be described: a registry name, raw spec
// text, and a list of key=value overrides. Both front ends -- the pg_run
// CLI and the pg_serve daemon -- build a RequestOptions and call
// resolve(), so option precedence is defined exactly once:
//
//     overrides (CLI --set/--sweep, or server-enforced config)
//   > spec text / registry spec
//
// Overrides apply in list order (last wins), matching repeated --set
// flags; the special key "sweep+" APPENDS a grid axis instead of
// replacing the sweep list, which is how --sweep composes with a spec
// that already declares axes. The server pushes its execution-envelope
// keys (threads, cache_*, trace) as trailing overrides -- "server config
// wins" is a precedence rule, not a special case.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "scenario/spec.h"

namespace pg::scenario {

struct RequestOptions {
  /// Registry scenario name. Mutually exclusive with `spec_text`.
  std::string scenario;
  /// Raw key=value spec text (a --spec file's contents, or a pg_serve
  /// request body). Mutually exclusive with `scenario`.
  std::string spec_text;
  /// Applied in order, last wins; key "sweep+" appends a sweep axis.
  std::vector<std::pair<std::string, std::string>> overrides;

  /// Resolve to a runnable spec. Throws std::invalid_argument when
  /// neither or both of scenario/spec_text are set, on an unknown
  /// scenario name, and on any parse/validation error in the spec text
  /// or overrides.
  [[nodiscard]] ScenarioSpec resolve() const;
};

}  // namespace pg::scenario
