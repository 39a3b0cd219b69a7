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

std::size_t ShardStore::shard_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shards_.size();
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

void CacheBundle::add_cells(std::size_t retrained, std::size_t hits) {
  std::lock_guard<std::mutex> lock(mutex_);
  retrained_ += retrained;
  hits_ += hits;
}

void CacheBundle::finish(CacheReport& report, bool spill) {
  report.enabled = store_.memo();
  report.disk_enabled = store_.disk_enabled();
  report.disk_dir = store_.dir();
  report.shards = store_.shard_count();
  report.cells_total = retrained_ + hits_;
  report.cells_retrained = retrained_;
  report.cache_hits = hits_;
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
