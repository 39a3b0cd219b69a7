// Argument parsing and top-level command logic for the pg_run driver.
//
// Split from tools/pg_run.cpp so tests can drive the full CLI surface
// (parse errors, --set precedence, --list output, sink selection) against
// in-memory streams without spawning a process.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <fstream>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/error.h"

namespace pg::scenario {

struct CliOptions {
  bool help = false;
  bool list = false;
  bool print_spec = false;      // resolve + print the spec, do not run
  std::string scenario;         // --scenario <name> (registry lookup)
  std::string spec_file;        // --spec <file> (parsed over defaults)
  /// --set key=value overrides, applied IN ORDER after the scenario /
  /// spec-file resolution, so later flags win (--threads, --cache-dir,
  /// --no-cache and --cache-max-bytes desugar to overrides too).
  /// `--sweep <clause>` desugars to the internal key "sweep+", which
  /// APPENDS an axis instead of replacing the list -- so repeated
  /// --sweep flags accumulate a grid, while `--set sweep=...` still
  /// replaces/clears it, in flag order.
  std::vector<std::pair<std::string, std::string>> overrides;
  std::string out_format = "text";  // --out json|csv|text
  std::string out_file;             // --out-file <path>; empty = stdout
  /// --metrics-out <path>: write the run's metrics-registry snapshot
  /// there as JSON (also desugars to a metrics=true override so the
  /// registry is reset for the run). --trace desugars to a trace=PATH
  /// override and lives in `overrides`.
  std::string metrics_out;

  // ---- distributed sweep sharding -------------------------------------
  /// --shard i/N: run the deterministic stride {i, i+N, ...} of the
  /// sweep grid and emit a partial artifact. shard_total == 0 = off.
  std::size_t shard_index = 0;
  std::size_t shard_total = 0;
  /// --shard-exec N: single-machine orchestrator -- fork N worker
  /// processes (each running one shard over the shared cache dir), wait,
  /// merge in-process, write the merged artifact to --out-file. 0 = off.
  std::size_t shard_exec = 0;
  /// --shard-retries K: with --shard-exec, relaunch a failed worker
  /// (nonzero exit, killed by a signal, or a missing/unparseable partial)
  /// up to K more times with exponential backoff + jitter before giving
  /// up. Only the failed shards relaunch; the merged result is
  /// unaffected because partials are deterministic per shard. 0 = the
  /// historical fail-fast behavior.
  std::size_t shard_retries = 0;
  /// --fault SITE:ACTION[@TRIGGER] entries (repeatable), applied as the
  /// process fault table before the run -- the CLI twin of $PG_FAULTS
  /// (flags win; see src/robust/faultpoint.h for the grammar).
  std::vector<std::string> faults;
  /// --merge a.json b.json ...: stitch shard partials into the canonical
  /// merged result (the trailing non-flag arguments after --merge).
  bool merge = false;
  std::vector<std::string> merge_inputs;

  // ---- --compare mode (mutually exclusive with running a scenario) ----
  bool compare = false;
  std::string compare_baseline;   // --compare <baseline.json> <candidate.json>
  std::string compare_candidate;
  double tolerance = 0.0;         // --tolerance t (abs OR rel per value)
  bool update_baseline = false;   // --update-baseline: accept the drift
  bool with_timing = false;       // --with-timing: compare _ms/_seconds too
  /// --with-telemetry: also compare telemetry* tables and obs.* metric
  /// keys (skipped by default -- their values are scheduling-dependent).
  bool with_telemetry = false;
};

/// Exit code for `--merge` when the inputs are valid, mutually
/// consistent partials of one sweep but some shards are absent. Paired
/// with the machine-readable `missing_shards=i,j,...` stdout line so a
/// retry wrapper can relaunch exactly those shards; every other merge
/// failure stays generic exit 1.
inline constexpr int kExitMissingShards = 4;

/// Largest file `pg_run` reads as input: a `--spec` file, a `--compare`
/// or `--merge` artifact, a `--shard-exec` worker's partial. A larger
/// one fails in one line that names it, after at most one byte past
/// the cap has been read. `pg_serve --request` and `pg_bench_serve
/// --spec` read their spec files through the same cap.
inline constexpr std::size_t kMaxInputBytes = std::size_t{64} << 20;

/// The whole of an input file, up to kMaxInputBytes. Throws
/// std::invalid_argument naming the path when it cannot be opened or is
/// larger than the cap. Inline, so that pg_serve and pg_bench_serve can
/// read spec files without linking the pg_run command logic.
[[nodiscard]] inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PG_CHECK(static_cast<bool>(in), "cannot read " + path);
  std::string text;
  std::array<char, 1 << 16> chunk{};
  while (in && text.size() < kMaxInputBytes) {
    in.read(chunk.data(), static_cast<std::streamsize>(std::min(
                              chunk.size(), kMaxInputBytes - text.size())));
    text.append(chunk.data(), static_cast<std::size_t>(in.gcount()));
  }
  PG_CHECK(in.peek() == std::ifstream::traits_type::eof(),
           path + " is larger than the " +
               std::to_string(kMaxInputBytes >> 20) + " MiB input cap");
  return text;
}

/// Parse argv (excluding argv[0]). Throws std::invalid_argument on
/// unknown flags, missing flag values, or malformed --set syntax.
[[nodiscard]] CliOptions parse_cli(const std::vector<std::string>& args);

[[nodiscard]] std::string cli_usage();

/// Execute the parsed command; human/machine output goes to `out`,
/// errors to `err`. Returns the process exit code.
int run_cli(const CliOptions& options, std::ostream& out, std::ostream& err);

}  // namespace pg::scenario
