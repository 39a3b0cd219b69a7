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
// CacheBundle is the PER-RUN view the runners are handed: it delegates
// shard lookup to the store and keeps this run's traffic counters (sweep
// cells, evaluator cells, manually-cached cells), so ScenarioResult::cache
// reports what THIS request did even when the shards are shared -- a warm
// second request for the same spec shows cells_retrained == 0.
//
// THREAD-SAFE: one store is shared by every point of a point-parallel
// grid and by every concurrent server request; shard lookup serializes on
// a mutex (the PayoffCache instances handed out are themselves
// thread-safe, and deque growth never invalidates shard pointers). The
// traffic COUNTERS may legitimately differ run-to-run under concurrency,
// which is exactly why the cache block is excluded from
// `pg_run --compare`; the cached VALUES cannot differ (each is a pure
// function of its content key).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>

#include "runtime/payoff_disk_cache.h"
#include "runtime/payoff_evaluator.h"
#include "scenario/result.h"
#include "sim/pure_sweep.h"

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
  /// is off -- callers pass the pointer straight through to the sim/
  /// entry points.
  [[nodiscard]] runtime::PayoffCache* shard(std::uint64_t context_key);

  [[nodiscard]] bool memo() const noexcept { return memo_; }
  [[nodiscard]] bool disk_enabled() const { return disk_.enabled(); }
  [[nodiscard]] const std::string& dir() const { return disk_.dir(); }
  [[nodiscard]] std::uint64_t max_bytes() const { return disk_.max_bytes(); }
  [[nodiscard]] std::size_t shard_count() const;
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

/// One run's window onto a ShardStore: shard access plus this run's
/// traffic counters. Runners keep local counters and deposit them here
/// once, so concurrent grid points never share a live counter struct.
class CacheBundle {
 public:
  explicit CacheBundle(ShardStore& store)
      : store_(store), loaded_at_start_(store.entries_loaded()) {}

  [[nodiscard]] runtime::PayoffCache* shard(std::uint64_t context_key) {
    return store_.shard(context_key);
  }
  [[nodiscard]] bool memo() const noexcept { return store_.memo(); }

  /// Fold one runner's sweep-cell counters into the totals.
  void add_sweep_stats(const sim::PureSweepStats& stats);
  /// Fold one engine-built evaluator's counters into the totals.
  void absorb(const runtime::PayoffEvaluator& evaluator);
  /// Manually-cached cells (clean baselines, the defense-ablation
  /// runner).
  void add_cells(std::size_t retrained, std::size_t hits);

  /// Fill this run's cache report. Single-threaded: called once after
  /// every point has joined. When `spill`, the backing store writes every
  /// shard to disk and the eviction pass runs (the standalone engine
  /// path); a shared-context run passes false and the owner spills at
  /// drain instead.
  void finish(CacheReport& report, bool spill);

 private:
  ShardStore& store_;
  std::size_t loaded_at_start_;
  std::mutex mutex_;
  sim::PureSweepStats sweep_stats_;
  std::size_t eval_retrained_ = 0;
  std::size_t eval_hits_ = 0;
};

}  // namespace pg::scenario
