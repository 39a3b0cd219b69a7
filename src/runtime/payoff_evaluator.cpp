#include "runtime/payoff_evaluator.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace pg::runtime {

ContentKey& ContentKey::mix(std::uint64_t word) noexcept {
  // FNV-1a, one byte at a time over the word.
  for (int b = 0; b < 8; ++b) {
    state_ ^= (word >> (8 * b)) & 0xFFU;
    state_ *= 0x100000001B3ULL;  // FNV-1a 64-bit prime
  }
  return *this;
}

ContentKey& ContentKey::mix(double value) noexcept {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return mix(bits);
}

std::uint64_t ContentKey::digest() const noexcept {
  // SplitMix64 finalizer: avalanches the FNV state so near-equal inputs
  // (adjacent grid fractions) land in unrelated cache buckets and RNG
  // stream indices.
  std::uint64_t z = state_ + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool PayoffCache::lookup(std::uint64_t key, double& value) const {
  static obs::Counter& obs_hits = obs::counter("obs.cache.hits");
  static obs::Counter& obs_misses = obs::counter("obs.cache.misses");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    obs_misses.add(1);
    return false;
  }
  ++stats_.hits;
  obs_hits.add(1);
  value = it->second;
  return true;
}

void PayoffCache::store(std::uint64_t key, double value) {
  static obs::Counter& obs_stores = obs::counter("obs.cache.stores");
  obs_stores.add(1);
  std::lock_guard<std::mutex> lock(mutex_);
  map_.emplace(key, value);
}

PayoffCache::Claim PayoffCache::claim(std::uint64_t key, double& value) {
  static obs::Counter& obs_hits = obs::counter("obs.cache.hits");
  static obs::Counter& obs_misses = obs::counter("obs.cache.misses");
  static obs::Counter& obs_coalesced = obs::counter("obs.cache.coalesced");
  std::unique_lock<std::mutex> lock(mutex_);
  bool waited = false;
  for (;;) {
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++stats_.hits;
      obs_hits.add(1);
      if (waited) obs_coalesced.add(1);
      value = it->second;
      return waited ? Claim::kWaited : Claim::kHit;
    }
    if (inflight_.insert(key).second) {
      ++stats_.misses;
      obs_misses.add(1);
      return Claim::kOwner;
    }
    // Someone else owns this key: sleep until it publishes or abandons.
    waited = true;
    flight_cv_.wait(lock);
  }
}

void PayoffCache::publish(std::uint64_t key, double value) {
  static obs::Counter& obs_stores = obs::counter("obs.cache.stores");
  obs_stores.add(1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.emplace(key, value);
    inflight_.erase(key);
  }
  flight_cv_.notify_all();
}

void PayoffCache::abandon(std::uint64_t key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
  }
  // A waiter on this key re-runs the claim loop, finds no value and no
  // owner, and is promoted to owner itself.
  flight_cv_.notify_all();
}

std::size_t PayoffCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

PayoffCacheStats PayoffCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<std::pair<std::uint64_t, double>> PayoffCache::snapshot() const {
  std::vector<std::pair<std::uint64_t, double>> entries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries.assign(map_.begin(), map_.end());
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return entries;
}

void PayoffCache::preload(
    const std::vector<std::pair<std::uint64_t, double>>& entries) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, value] : entries) map_.emplace(key, value);
}

bool memoize(PayoffCache* cache, std::span<const std::uint64_t> keys,
             std::span<double> values, const std::function<void()>& compute) {
  static obs::Counter& obs_retrains = obs::counter("obs.cache.retrains");
  PG_CHECK(!keys.empty() && keys.size() == values.size(),
           "memoize: needs one value per key and at least one key");
  const bool owner = cache != nullptr && cache->claim(keys[0], values[0]) ==
                                             PayoffCache::Claim::kOwner;
  // Entries to store once computed: an owner's siblings, or after a hit
  // every entry from the first missing sibling on.
  std::size_t first = 1;
  if (cache != nullptr && !owner) {
    while (first < keys.size() && cache->lookup(keys[first], values[first])) {
      ++first;
    }
    if (first == keys.size()) return false;
  }
  try {
    compute();
    for (std::size_t i = first; cache != nullptr && i < keys.size(); ++i) {
      cache->store(keys[i], values[i]);
    }
  } catch (...) {
    if (owner) cache->abandon(keys[0]);
    throw;
  }
  obs_retrains.add(1);
  if (owner) cache->publish(keys[0], values[0]);
  return true;
}

std::vector<double> PayoffEvaluator::evaluate_cells(std::size_t count,
                                                    std::size_t width,
                                                    const KeyFn& key,
                                                    const CellFn& cell) const {
  PG_CHECK(width > 0 && key != nullptr && cell != nullptr,
           "PayoffEvaluator: needs a cell width, a key and a cell function");
  obs::Span span("evaluate_cells", "payoff");
  std::vector<std::uint64_t> keys(count * width, 0);
  std::vector<double> values(count * width, 0.0);
  // Nesting-aware dispatch: payoff cells are coarse (a retrain each), so
  // even when this evaluator runs inside an outer pool task -- a sweep
  // point under the scenario engine's point-parallel grid -- its cells
  // still fan out to idle workers instead of serializing on one.
  executor_.parallel_for(0, count, 1, [&](std::size_t i) {
    const std::span<std::uint64_t> cell_keys(&keys[i * width], width);
    const std::span<double> cell_values(&values[i * width], width);
    key(i, cell_keys);
    const bool computed = memoize(cache_, cell_keys, cell_values,
                                  [&] { cell(i, cell_values); });
    (computed ? computed_ : hits_).fetch_add(1, std::memory_order_relaxed);
  });
  return values;
}

std::size_t PayoffEvaluator::cache_hits() const noexcept {
  return hits_.load(std::memory_order_relaxed);
}

std::size_t PayoffEvaluator::cells_computed() const noexcept {
  return computed_.load(std::memory_order_relaxed);
}

const PayoffEvaluator& serial_evaluator() noexcept {
  static const PayoffEvaluator evaluator(serial_executor());
  return evaluator;
}

}  // namespace pg::runtime
