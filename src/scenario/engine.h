// The scenario engine: one loop that executes any ScenarioSpec.
//
// run_scenario resolves the spec's execution envelope (executor width,
// cache layers), dispatches on `spec.kind` to the matching runner, and
// returns a structured ScenarioResult. When the spec carries `sweep`
// axes (scenario/sweep.h) the engine instead expands the cross-product
// grid and runs every point through the same dispatch -- one executor,
// one shared cache bundle -- then merges the per-point results into a
// single ScenarioResult whose tables lead with the axis coordinates. Each
// runner drives the sim/ and core/ entry points directly, so at a fixed
// seed the numbers are bit-identical at 1 vs N threads, inherited from
// the runtime's determinism contract.
//
// Caching: every experiment context of a run gets one
// runtime::PayoffEvaluator (CacheBundle::evaluator) on the run's
// executor, and every retrain-priced cell of that context -- the clean
// baseline, sweep cells, mixed-eval cells, ablation pipeline runs -- runs
// through it. When `spec.use_cache` is on, the evaluator memoizes into a
// PayoffCache shard keyed by the context key (sim::context_key, known
// before anything trains), and when a cache directory is configured
// (spec field or $PG_CACHE_DIR) each shard is preloaded from and spilled
// back to disk, so a re-run -- or a tweaked sweep overlapping the old
// grid -- reuses prior retrains across processes. The evaluators' counts
// are reported in ScenarioResult::cache; a warm re-run shows
// cells_retrained == 0.
#pragma once

#include <string>

#include "scenario/result.h"
#include "scenario/spec.h"

namespace pg::runtime {
class Executor;
}  // namespace pg::runtime

namespace pg::scenario {

class ShardStore;

/// Execute the spec. Throws std::invalid_argument on an unknown kind or
/// out-of-range knobs (the validation the per-bench mains used to spread
/// across eight copies of main()).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Coordinate cells in merged sweep tables: numeric ONLY for finite
/// values whose text is a canonical grid rendering (shortest-roundtrip
/// double or plain integer form) -- so `10` and `0.05` become numbers
/// while `inf`, `nan`, `0x10`, `007`, or `1e3` stay the strings the spec
/// text spelled. Exposed for tests; the sweep-grid merge fold uses it.
[[nodiscard]] Value coordinate_value(const std::string& text);

/// Shared execution substrate for RE-ENTRANT runs: a resident owner (the
/// pg_serve daemon) builds the executor and shard store once and runs
/// many specs against them. In this mode the engine does NOT manage the
/// process-level observability lifecycle (no metrics reset, no tracer
/// start, no trace-file write -- those belong to the owner, which also
/// spills the shard store at drain), so concurrent run_scenario calls on
/// one context are safe. `spec.trace` must be empty (PG_CHECKed);
/// `spec.threads`/cache keys describe the run but the context's executor
/// and store are what actually execute it -- the owner is expected to
/// force-override those keys (scenario::RequestOptions documents the
/// precedence).
struct EngineContext {
  runtime::Executor* executor = nullptr;
  ShardStore* shards = nullptr;
};

/// Execute the spec on a shared context. Same validation and results as
/// the standalone overload; bit-identical output for the same resolved
/// spec (the cache/timing blocks are the usual non-deterministic
/// exclusions).
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          EngineContext& context);

}  // namespace pg::scenario
