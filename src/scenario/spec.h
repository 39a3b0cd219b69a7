// Declarative scenario description: what to run, at what size, with which
// knobs -- the data the scenario engine executes.
//
// A ScenarioSpec is a flat bag of typed fields with a uniform string
// field table, so the same struct is (a) buildable in code (the registry
// does), (b) parseable from a simple key=value text file, and
// (c) overridable one key at a time (`pg_run --set key=value`). The text
// format is line-oriented:
//
//     # comment
//     kind = pure_sweep
//     instances = 700
//     "epochs": 40,          <- JSON-ish spellings tolerated
//     sweep = seed=1,2,3     <- repeatable: each line adds one grid axis
//
// Unknown keys and malformed values throw std::invalid_argument, so a
// typo'd spec file fails loudly instead of silently running the default.
// parse(to_text()) round-trips exactly (doubles print with max precision).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pg::scenario {

struct ScenarioSpec {
  // ---- identity ------------------------------------------------------
  std::string name = "custom";
  /// Engine dispatch key: pure_sweep | mixed_table | pure_ne |
  /// support_sweep | transfer | solver_ablation | defense_ablation |
  /// micro | serve_metrics.
  std::string kind;
  std::string description;

  // ---- experiment context (corpus + protocol) ------------------------
  std::uint64_t seed = 42;
  std::size_t instances = 4601;  // paper's Spambase size
  std::size_t epochs = 300;
  double train_fraction = 0.7;
  double poison_fraction = 0.2;
  double class_separation = 1.0;
  bool real_corpus = true;  // use a real spambase.data when present

  // ---- sweep axes ----------------------------------------------------
  double sweep_max = 0.40;
  std::size_t sweep_steps = 9;
  std::size_t replications = 2;
  /// Generic grid axes (normalized `key=range-or-list` clauses, see
  /// scenario/sweep.h). Non-empty turns the run into a cross-product grid
  /// executed as one engine loop. In spec text the key is `sweep` and the
  /// line is repeatable (each line appends one axis); `set("sweep", ...)`
  /// replaces the whole list with the `;`-separated clauses it is given
  /// (empty clears), so `--set sweep=...` stays last-wins like every
  /// other override.
  std::vector<std::string> sweeps;
  /// Comma-separated sweep-axis keys to aggregate over (typically
  /// replication-style axes like `seed`): the merged grid result gains a
  /// `sweep_aggregates` table with mean/min/max/count of every numeric
  /// per-point metric across the named axes, keyed by the remaining
  /// axes' coordinates -- plots need no post-processing. Empty (the
  /// default) adds nothing. Every named key must be a declared sweep
  /// axis; the engine rejects the spec otherwise.
  std::string aggregate;

  // ---- mixed-strategy evaluation ------------------------------------
  std::size_t draws = 3;
  std::size_t support_min = 2;
  std::size_t support_max = 3;

  // ---- attack / defense families (comma-separated names) -------------
  std::string attacks = "boundary,label_flip,noise";
  std::string defenses = "distance,knn,pca,roni";

  // ---- solver choices ------------------------------------------------
  std::size_t solver_grid = 128;
  std::size_t solver_iterations = 20000;
  std::string lp_pricing = "bland";  // or "dantzig" (see game/lp.h)
  std::size_t timing_reps = 3;  // best-of repetitions for timed kernels

  // ---- execution -----------------------------------------------------
  std::size_t threads = 0;  // 0 = all cores, 1 = serial
  /// Retrain kernel: "reference" (default) keeps the bit-identical
  /// sequential SGD path; "simd" batches cold payoff cells' SGD solves
  /// into SoA lockstep groups on runtime-dispatched intrinsic kernels
  /// (validated against every golden at the documented 1e-9 tolerance --
  /// see README "Kernel tiers"). Anything else is rejected up front.
  std::string kernel = "reference";
  /// SIMD tier override for kernel=simd: "" / "auto" (cpuid, after the
  /// PG_SIMD env var), or an explicit "scalar" / "sse2" / "avx2".
  /// Requesting a tier the host cannot execute is a hard error, not a
  /// silent fallback. Only meaningful with kernel=simd.
  std::string simd;
  /// Memoize payoff cells (in-memory always; spilled to/from disk when a
  /// cache dir is configured). Off = the historical uncached behavior.
  bool use_cache = true;
  /// Disk spill directory; empty defers to $PG_CACHE_DIR (and disables
  /// the disk layer when that is unset too).
  std::string cache_dir;
  /// Cap on the disk cache directory's total shard bytes; 0 = unbounded.
  /// When a run's spills push the directory past the cap, the oldest
  /// shards (by modification time) are evicted until it fits.
  std::size_t cache_max_bytes = 0;

  // ---- observability --------------------------------------------------
  // All three default off, so every committed spec and golden baseline is
  // untouched; and because tracing/metrics only OBSERVE, turning them on
  // cannot change a single result value (the golden CI job runs the full
  // suite both ways to hold that line). See src/obs/.
  /// Chrome Trace Event JSON output path (empty = tracing off). The
  /// engine records spans for the whole run and writes the file at the
  /// end; load it in chrome://tracing or Perfetto.
  std::string trace;
  /// Fold a metrics-registry snapshot into the result as
  /// `telemetry_counters` / `telemetry_timers` tables (diff-excluded by
  /// default; see scenario/diff.h).
  bool metrics = false;
  /// Attach solver convergence recorders where the scenario solves games
  /// (solver_ablation) and emit a `telemetry` table of decimated
  /// per-iteration gap samples.
  bool telemetry = false;

  // ---- uniform field access -----------------------------------------
  /// Assign one field from its string form. Throws std::invalid_argument
  /// on an unknown key or a value that does not fully parse.
  void set(const std::string& key, const std::string& value);
  /// Read one field in its string form. Throws on unknown keys.
  [[nodiscard]] std::string get(const std::string& key) const;
  /// Every settable key, in declaration order.
  [[nodiscard]] static std::vector<std::string> keys();

  /// Append sweep axes: `clauses` is one clause or a `;`-separated list.
  /// Each clause is validated and normalized through
  /// scenario/sweep.h's parse_sweep_clause, so malformed ranges and
  /// unknown axis keys throw here, at spec-build time.
  void add_sweep(const std::string& clauses);

  /// Serialize as key=value lines (all fields, declaration order).
  [[nodiscard]] std::string to_text() const;
  /// Parse key=value text over the defaults. Throws on malformed lines.
  [[nodiscard]] static ScenarioSpec parse(const std::string& text);
};

/// Split "a,b,c" into trimmed non-empty items.
[[nodiscard]] std::vector<std::string> split_list(const std::string& csv);

}  // namespace pg::scenario
