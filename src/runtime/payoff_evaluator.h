// Cell-parallel payoff-grid evaluation with content-keyed memoization.
//
// The hottest object in the library is a payoff matrix whose cell (i, j)
// costs either a closed-form curve lookup (the analytic PoisoningGame
// discretization) or a full sanitize-and-retrain pipeline run (the
// empirical Fig.-1 / Table-1 grids). Both are embarrassingly parallel --
// every cell is a pure function of its configuration -- so the evaluator
// fans cells out over an Executor and, when the caller supplies a content
// key (a 64-bit hash of EVERYTHING the cell's value depends on: corpus
// fingerprint, model config, placement, filter strength, replication
// index, seed), memoizes trained-model payoffs in a PayoffCache so
// repeated grids (support sweeps, transfer evaluation, solver ablations)
// never retrain the same cell twice.
//
// Every memoized cell in the library -- sweep cells, clean baselines,
// defense-ablation cells and the evaluator's keyed cells -- goes through
// memoize() below, the only user of the cache's single-flight claims.
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

#include "la/matrix.h"
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
/// re-evaluating overlapping mixtures) create one cache and pass it to
/// every evaluator they build. The scenario engine additionally spills a
/// cache to disk between processes (runtime/payoff_disk_cache.h) through
/// the snapshot/preload pair below.
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

/// The one memoized-cell path. Fills `values` (one per key) from `cache`
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
  /// fn(index) -> payoff for the flattened-cell overloads.
  using CellFn = std::function<double(std::size_t)>;
  /// key(index) -> content key; empty function disables memoization.
  using KeyFn = std::function<std::uint64_t(std::size_t)>;

  /// The evaluator borrows both the executor and the (optional) cache;
  /// they must outlive it. `grain` is the parallel_for chunk size --
  /// 1 for retrain-priced cells, larger for closed-form cells.
  explicit PayoffEvaluator(Executor& executor, PayoffCache* cache = nullptr,
                           std::size_t grain = 1)
      : executor_(executor), cache_(cache), grain_(grain == 0 ? 1 : grain) {}

  /// Evaluate `count` independent cells; returns values in index order.
  /// Keyed cells go through memoize(); unkeyed cells (closed-form
  /// curves) are computed directly and never counted as retrains.
  [[nodiscard]] std::vector<double> evaluate_cells(std::size_t count,
                                                   const CellFn& cell,
                                                   const KeyFn& key = {}) const;

  /// Row-major matrix of rows x cols cells (cell index = r * cols + c).
  /// core::PoisoningGame::discretize is built on this, so every payoff
  /// matrix in the library -- analytic or trained -- is filled here.
  [[nodiscard]] la::Matrix evaluate_matrix(std::size_t rows, std::size_t cols,
                                           const CellFn& cell,
                                           const KeyFn& key = {}) const;

  /// Cells served from the cache / computed, cumulative over this
  /// evaluator's lifetime (approximate under concurrency: relaxed
  /// atomics, but totals are exact once evaluate_* has returned).
  [[nodiscard]] std::size_t cache_hits() const noexcept;
  [[nodiscard]] std::size_t cells_computed() const noexcept;

 private:
  Executor& executor_;
  PayoffCache* cache_;
  std::size_t grain_;
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> computed_{0};
};

}  // namespace pg::runtime
