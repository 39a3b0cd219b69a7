// The engine's cache layers, split so a resident server can share them
// across requests.
//
// ShardStore is the LONG-LIVED half: one PayoffCache shard per context
// key (sim::context_key; created and disk-preloaded on first use), the
// DiskPayoffCache they spill back to, and nothing else. One store lives
// for a whole pg_serve process -- every request's run_scenario sees the
// same warm shards -- or for exactly one run under the standalone
// engine, which is the pre-refactor behavior.
//
// CacheBundle is the PER-RUN view the runners are handed: one
// runtime::PayoffEvaluator per experiment context, on the run's executor
// and over that context's shard. Every memoized cell of the run goes
// through one of them, so their counts are this run's traffic and
// ScenarioResult::cache reports what THIS request did even when the
// shards are shared -- a warm second request for the same spec shows
// cells_retrained == 0.
//
// THREAD-SAFE: one store is shared by every point of a point-parallel
// grid and by every concurrent server request; shard and evaluator
// lookups serialize on mutexes (the PayoffCache and PayoffEvaluator
// instances handed out are themselves thread-safe, and neither container
// moves what it handed out when it grows). The traffic COUNTERS may
// legitimately differ run-to-run under concurrency, which is exactly why
// the cache block is excluded from `pg_run --compare`; the cached VALUES
// cannot differ (each is a pure function of its content key).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>

#include "runtime/executor.h"
#include "runtime/payoff_disk_cache.h"
#include "runtime/payoff_evaluator.h"
#include "scenario/result.h"

namespace pg::scenario {

class ShardStore {
 public:
  /// `memo` off turns every shard() into nullptr (memoization disabled);
  /// `dir` empty disables the disk layer only.
  ShardStore(bool memo, std::string dir, std::uint64_t max_bytes);

  ShardStore(const ShardStore&) = delete;
  ShardStore& operator=(const ShardStore&) = delete;

  /// The shard for one experiment context, by its context key (created
  /// and disk-preloaded on first use). Returns nullptr when memoization
  /// is off: an evaluator over it computes every cell.
  [[nodiscard]] runtime::PayoffCache* shard(std::uint64_t context_key);

  [[nodiscard]] bool memo() const noexcept { return memo_; }
  [[nodiscard]] bool disk_enabled() const { return disk_.enabled(); }
  [[nodiscard]] const std::string& dir() const { return disk_.dir(); }
  [[nodiscard]] std::uint64_t max_bytes() const { return disk_.max_bytes(); }
  /// Cumulative disk entries preloaded into shards since construction.
  [[nodiscard]] std::size_t entries_loaded() const;

  struct SpillStats {
    std::size_t entries_saved = 0;
    std::size_t shards_evicted = 0;
  };
  /// Spill every shard to disk, then run one eviction pass (the shards
  /// just written are the newest, so a size cap evicts stale contexts
  /// first). Callable repeatedly: the standalone engine spills once per
  /// run, the server once at drain.
  SpillStats spill();

 private:
  bool memo_;
  runtime::DiskPayoffCache disk_;
  mutable std::mutex mutex_;
  // Deque: growth never invalidates the shard pointers handed out.
  std::deque<std::pair<std::uint64_t, runtime::PayoffCache>> shards_;
  std::size_t loaded_ = 0;
};

/// One run's window onto a ShardStore: the evaluator of each experiment
/// context the run touches, and the cache report their counts add up to.
class CacheBundle {
 public:
  CacheBundle(ShardStore& store, runtime::Executor& executor)
      : store_(store),
        executor_(executor),
        loaded_at_start_(store.entries_loaded()) {}

  /// The evaluator of one experiment context's cells, by its context key:
  /// on the run's executor, over the context's shard. Created on first
  /// use; every later call, from any grid point, returns the same one.
  [[nodiscard]] const runtime::PayoffEvaluator& evaluator(
      std::uint64_t context_key);

  /// The run's executor, for loops that are not payoff cells.
  [[nodiscard]] runtime::Executor& executor() const noexcept {
    return executor_;
  }

  /// Fill this run's cache report from its evaluators' counts.
  /// Single-threaded: called once after every point has joined. When
  /// `spill`, the backing store writes every shard to disk and the
  /// eviction pass runs (the standalone engine path); a shared-context
  /// run passes false and the owner spills at drain instead.
  void finish(CacheReport& report, bool spill);

 private:
  ShardStore& store_;
  runtime::Executor& executor_;
  std::size_t loaded_at_start_;
  std::mutex mutex_;
  // Node-based: growth never moves the evaluators handed out.
  std::map<std::uint64_t, runtime::PayoffEvaluator> evaluators_;
};

}  // namespace pg::scenario
