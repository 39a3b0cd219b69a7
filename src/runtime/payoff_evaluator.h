// Cell-parallel, content-keyed memoization of retrain-priced payoff cells.
//
// The costliest object in the library is a payoff cell: a full
// sanitize-and-retrain pipeline run (the empirical Fig.-1 / Table-1
// grids, the clean baseline, the defense ablation). Every cell is a pure
// function of its configuration, so the evaluator fans cells out over an
// Executor and memoizes their values in a PayoffCache under content keys
// (64-bit hashes of EVERYTHING a value depends on: corpus fingerprint,
// model config, placement, filter strength, replication index, seed), so
// repeated grids (support sweeps, transfer evaluation, warm re-runs)
// never retrain the same cell twice.
//
// PayoffEvaluator::evaluate_cells is the one cell loop: the clean
// baseline (2 values), pure-sweep cells (3), mixed-eval cells (1),
// defense-ablation cells (3) and Algorithm 1 solutions (2n + 3 for a
// support of n; sim::solve_defense) all run through it, and it is
// memoize()'s only caller -- memoize() below is the only user of the
// cache's single-flight claims.
//
// Memoization cannot change results, only skip work: a cached value is by
// definition the value the cell function would deterministically
// recompute for that key. Under-specified keys break this -- key builders
// must cover every input (see sim/mixed_eval.cpp for the reference use).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "runtime/executor.h"

namespace pg::runtime {

/// Incremental 64-bit content hash (FNV-1a over 64-bit words, finalized
/// with a SplitMix64-style avalanche). Used both for cache keys and as the
/// stream index handed to RngStreamFactory, so "same content" implies both
/// "same randomness" and "same cache slot".
class ContentKey {
 public:
  ContentKey& mix(std::uint64_t word) noexcept;
  ContentKey& mix(double value) noexcept;  // hashes the bit pattern
  [[nodiscard]] std::uint64_t digest() const noexcept;

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ULL;  // FNV-1a offset basis
};

/// Cumulative lookup traffic on a PayoffCache. `hits + misses` is the
/// total lookup count; `size()` tracks stores (including preloads).
struct PayoffCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
};

/// Thread-safe key -> payoff store shared across evaluator calls. Callers
/// that want memoization ACROSS entry points (e.g. a support sweep
/// re-evaluating overlapping mixtures) create one cache and evaluate
/// through one evaluator over it. The scenario engine keeps one per
/// experiment context and spills it to disk between processes
/// (runtime/payoff_disk_cache.h) through the snapshot/preload pair below.
class PayoffCache {
 public:
  [[nodiscard]] bool lookup(std::uint64_t key, double& value) const;
  void store(std::uint64_t key, double value);
  [[nodiscard]] std::size_t size() const;

  /// Lookup traffic since construction.
  [[nodiscard]] PayoffCacheStats stats() const;

  /// All entries, sorted by key so serialized cache files are
  /// deterministic for identical contents.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> snapshot() const;

  /// Bulk-insert entries (e.g. loaded from disk) without touching the
  /// hit/miss counters. Existing keys keep their current value.
  void preload(const std::vector<std::pair<std::uint64_t, double>>& entries);

 private:
  friend bool memoize(PayoffCache*, std::span<const std::uint64_t>,
                      std::span<double>, const std::function<void()>&);

  /// Single-flight: one caller per key becomes kOwner (the one miss in
  /// stats()) and must publish() or abandon(); the rest are hits, at once
  /// (kHit) or after the owner publishes (kWaited).
  enum class Claim { kHit, kOwner, kWaited };
  [[nodiscard]] Claim claim(std::uint64_t key, double& value);
  void publish(std::uint64_t key, double value);  // store, wake waiters
  void abandon(std::uint64_t key);  // release; one waiter becomes owner

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, double> map_;
  // Keys claimed by an in-flight owner; waiters sleep on flight_cv_.
  std::unordered_set<std::uint64_t> inflight_;
  std::condition_variable flight_cv_;
  mutable PayoffCacheStats stats_;
};

/// One memoized cell; PayoffEvaluator::evaluate_cells is its only caller
/// outside the tests. Fills `values` (one per key) from `cache`
/// or by running `compute`, which must fill all of them; returns whether
/// it ran. keys[0] is claimed single-flight: one caller per cold cell
/// computes and the rest wait for its value. The owner stores keys[1..]
/// before publishing keys[0]; a hit on keys[0] with a missing sibling (a
/// shard written by an older version) computes and stores the entries
/// from that sibling on. A throwing owner abandons its claim to a waiter
/// and rethrows; a null `cache` just computes. Each run of `compute` adds
/// 1 to obs.cache.retrains. `compute` must not memoize a key of the same
/// cache that a task it waits on could own (cells are leaf computations).
bool memoize(PayoffCache* cache, std::span<const std::uint64_t> keys,
             std::span<double> values, const std::function<void()>& compute);

class PayoffEvaluator {
 public:
  /// key(i, keys) fills cell i's `width` content keys.
  using KeyFn = std::function<void(std::size_t, std::span<std::uint64_t>)>;
  /// cell(i, values) fills cell i's `width` values.
  using CellFn = std::function<void(std::size_t, std::span<double>)>;

  /// The evaluator borrows both the executor and the (optional) cache;
  /// they must outlive it. A null cache computes every cell.
  explicit PayoffEvaluator(Executor& executor, PayoffCache* cache = nullptr)
      : executor_(executor), cache_(cache) {}

  /// Evaluate `count` cells of `width` values each: one memoize() call
  /// per cell (keys[0] claimed single-flight, the rest its siblings), one
  /// cell per executor chunk. Returns the values cell-major: cell i's at
  /// [i * width, (i + 1) * width). Each cell counts once, as computed or
  /// as a hit.
  [[nodiscard]] std::vector<double> evaluate_cells(std::size_t count,
                                                   std::size_t width,
                                                   const KeyFn& key,
                                                   const CellFn& cell) const;

  /// Cells served from the cache / computed, cumulative over this
  /// evaluator's lifetime (approximate under concurrency: relaxed
  /// atomics, but totals are exact once evaluate_cells has returned).
  [[nodiscard]] std::size_t cache_hits() const noexcept;
  [[nodiscard]] std::size_t cells_computed() const noexcept;

 private:
  Executor& executor_;
  PayoffCache* cache_;
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> computed_{0};
};

/// Process-wide uncached evaluator on serial_executor(): the default of
/// the sim/ entry points. A caller that wants cells reused across calls
/// passes an evaluator over its own PayoffCache instead.
[[nodiscard]] const PayoffEvaluator& serial_evaluator() noexcept;

}  // namespace pg::runtime
