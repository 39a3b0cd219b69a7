// Structured result differ: the engine behind `pg_run --compare`.
//
// Two JSON artifacts written by the JSON ResultSink (a single run, or
// the merged `{name: run, ...}` object the CI smoke matrix produces) are
// aligned structurally -- run by scenario name, metric by key, table by
// (name, occurrence), row by its coordinate key -- and every aligned
// value is compared under a numeric tolerance. The diff distinguishes
// value DRIFT (both sides have the value, numbers differ past
// tolerance) from MISSING/EXTRA rows, metrics, tables, or runs (the
// shape changed), so a regression report says *what moved* rather than
// "bytes differ".
//
// Row alignment: a row's identity key is its first cell plus every cell
// in a sweep-axis column (the artifact's `sweep_axes` list) plus every
// string-valued cell -- i.e. the coordinates that name the row, not the
// measurements in it. Duplicate keys fall back to occurrence order, so
// two runs of the same spec always align row-for-row.
//
// Non-deterministic fields are excluded by default: wall-clock columns
// and metrics (names ending `_ms`/`_seconds`, or containing `speedup` --
// a ratio of wall-clock times), `elapsed_seconds`, executor `threads`,
// the `cache` traffic block, and rows of the merged `sweep_metrics`
// table whose metric name is itself a timing name. What
// remains is exactly the bit-stable surface the engine guarantees, so
// `--compare` at tolerance 0 is a true regression check.
//
// The JsonValue loader is a minimal strict JSON reader (objects, arrays,
// strings, numbers, literals) sufficient for the sink's own output; it
// throws std::invalid_argument with a byte offset on malformed input.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace pg::scenario {

/// A parsed JSON document node.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;                 // kString
  std::vector<JsonValue> items;     // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject, ordered

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;
};

/// Strict parse of a full JSON document. Throws std::invalid_argument
/// (with the byte offset) on malformed input, trailing garbage, or
/// arrays/objects nested more than 256 deep.
[[nodiscard]] JsonValue parse_json(const std::string& text);

struct DiffOptions {
  /// A numeric pair matches when |a-b| <= tolerance OR the relative
  /// delta |a-b| / max(|a|,|b|) <= tolerance. 0 demands bit-equality.
  double tolerance = 0.0;
  /// Skip wall-clock values (see file comment). On by default; turning
  /// it off compares timings too (useful for perf triage, never for
  /// regression gating).
  bool ignore_timing = true;
  /// Skip telemetry output: tables whose name starts with "telemetry"
  /// (the metrics-registry dumps and solver convergence samples), metric
  /// keys starting with "obs.", and merged sweep_metrics rows naming
  /// such a metric. Telemetry values are scheduling-dependent (cache
  /// hits, steal counts, span timings), so they are excluded from
  /// regression gating by default; `--with-telemetry` compares them too.
  bool ignore_telemetry = true;
};

enum class DiffKind {
  kDrift,    // both sides present, value differs past tolerance
  kMissing,  // in baseline, absent from candidate
  kExtra,    // in candidate, absent from baseline
  kShape,    // structure mismatch (types, columns) -- contents not compared
};

struct DiffEntry {
  DiffKind kind = DiffKind::kDrift;
  std::string location;   // e.g. "fig1/pure_sweep[0.1]/accuracy_attacked"
  std::string baseline;   // rendered value ("" for kExtra)
  std::string candidate;  // rendered value ("" for kMissing)
  bool numeric = false;
  double abs_delta = 0.0;  // numeric drifts only
  double rel_delta = 0.0;
};

struct ResultDiff {
  std::vector<DiffEntry> entries;      // problems only, in document order
  std::size_t values_compared = 0;     // aligned leaf values examined
  std::size_t values_matched = 0;      // of those, within tolerance

  [[nodiscard]] bool clean() const noexcept { return entries.empty(); }
  [[nodiscard]] std::size_t count(DiffKind kind) const;
};

/// Compare two JSON result artifacts (each a single run or a merged
/// name->run object). Throws std::invalid_argument when an input is not
/// one of those two shapes.
[[nodiscard]] ResultDiff diff_results(const JsonValue& baseline,
                                      const JsonValue& candidate,
                                      const DiffOptions& options = {});

/// Human-readable report: per-entry lines with abs/rel deltas, then a
/// summary line. Prints "results match" when the diff is clean.
void write_diff_report(const ResultDiff& diff, const DiffOptions& options,
                       std::ostream& out);

}  // namespace pg::scenario
