#include "scenario/cache_bundle.h"

namespace pg::scenario {

ShardStore::ShardStore(bool memo, std::string dir, std::uint64_t max_bytes)
    : memo_(memo), disk_(memo ? std::move(dir) : std::string(), max_bytes) {}

runtime::PayoffCache* ShardStore::shard(std::uint64_t context_key) {
  if (!memo_) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [key, cache] : shards_) {
    if (key == context_key) return &cache;
  }
  shards_.emplace_back();
  shards_.back().first = context_key;
  loaded_ += disk_.load(context_key, shards_.back().second);
  return &shards_.back().second;
}

std::size_t ShardStore::entries_loaded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return loaded_;
}

ShardStore::SpillStats ShardStore::spill() {
  std::lock_guard<std::mutex> lock(mutex_);
  SpillStats stats;
  for (auto& [key, cache] : shards_) {
    stats.entries_saved += disk_.save(key, cache);
  }
  stats.shards_evicted = disk_.enforce_max_bytes();
  return stats;
}

const runtime::PayoffEvaluator& CacheBundle::evaluator(
    std::uint64_t context_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = evaluators_.find(context_key);
  if (it == evaluators_.end()) {
    it = evaluators_
             .try_emplace(context_key, executor_, store_.shard(context_key))
             .first;
  }
  return it->second;
}

void CacheBundle::finish(CacheReport& report, bool spill) {
  report.enabled = store_.memo();
  report.disk_enabled = store_.disk_enabled();
  report.disk_dir = store_.dir();
  // The contexts this run touched, not every shard of a shared store; a
  // context has no shard with memoization off.
  report.shards = store_.memo() ? evaluators_.size() : 0;
  std::size_t retrained = 0;
  std::size_t hits = 0;
  for (const auto& [key, evaluator] : evaluators_) {
    retrained += evaluator.cells_computed();
    hits += evaluator.cache_hits();
  }
  report.cells_total = retrained + hits;
  report.cells_retrained = retrained;
  report.cache_hits = hits;
  // Per-run delta: shards preloaded by EARLIER runs on the same store are
  // that run's traffic, not this one's.
  report.disk_entries_loaded = store_.entries_loaded() - loaded_at_start_;
  report.disk_max_bytes = store_.max_bytes();
  if (spill) {
    const ShardStore::SpillStats stats = store_.spill();
    report.disk_entries_saved = stats.entries_saved;
    report.disk_shards_evicted = stats.shards_evicted;
  }
}

}  // namespace pg::scenario
