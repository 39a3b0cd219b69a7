// Disk spill for runtime::PayoffCache: cross-process reuse of retrains.
//
// A payoff cell's key is a 64-bit content hash of EVERYTHING its value
// depends on (context fingerprint + cell knobs + replication), so a cached
// (key, payoff) pair is valid in any later process that derives the same
// key -- a re-run, or a tweaked sweep whose grids overlap the old one.
// This class persists one cache file per SHARD (the shard id is the
// context key, sim::context_key: a content hash of the context known
// before anything trains, so every experiment context gets its own file
// and unrelated corpora never share buckets) under a cache directory:
//
//     <dir>/payoff-<shard hex>.pgpc
//
// File format v1 (little-endian, fixed width):
//     u64 magic "PGPCACH1"  | u64 entry count N
//     N x (u64 key, u64 payoff bit pattern)
//     u64 checksum (FNV-1a over all N entry words)
//
// Loading is strictly validating: a bad magic, truncated body, or checksum
// mismatch makes load() return 0 entries (with a log warning) instead of
// throwing -- a corrupt or stale cache file degrades to a cold run, never
// to a wrong result or a crash. A rejected shard is QUARANTINED (renamed
// to <file>.corrupt, counted as obs.cache.quarantined) so later runs stop
// re-reading and re-rejecting the same poisoned bytes. save() goes through
// robust::atomic_write_file (temp + fsync + rename) so a crashed writer
// cannot leave a half-written shard; both paths carry robust fault points
// (cache.load / cache.store) for chaos testing.
//
// The directory comes from the caller or the PG_CACHE_DIR environment
// variable; empty means disabled (every call becomes a no-op).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "runtime/payoff_evaluator.h"

namespace pg::runtime {

class DiskPayoffCache {
 public:
  /// `dir` empty -> disabled. The directory is created lazily on the
  /// first save(). `max_bytes` caps the directory's total shard size
  /// (0 = unbounded); enforce_max_bytes() applies it.
  explicit DiskPayoffCache(std::string dir, std::uint64_t max_bytes = 0)
      : dir_(std::move(dir)), max_bytes_(max_bytes) {}

  /// Directory from PG_CACHE_DIR (empty when unset -> disabled).
  [[nodiscard]] static std::string env_dir();

  [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

  /// The shard's file path (defined even when the file does not exist).
  [[nodiscard]] std::string shard_path(std::uint64_t shard) const;

  /// Merge the shard's persisted entries into `into` (existing keys win).
  /// Returns the number of entries read; 0 when disabled, missing, or
  /// corrupt. Never throws on bad file contents; a corrupt file is
  /// quarantined (renamed to <file>.corrupt) on detection.
  std::size_t load(std::uint64_t shard, PayoffCache& into) const;

  /// Persist the cache's full contents as the shard file (the caller
  /// loads before running, so the snapshot is old entries + new ones).
  /// Returns the number of entries written; 0 when disabled or the
  /// filesystem refuses (logged, not thrown).
  std::size_t save(std::uint64_t shard, const PayoffCache& cache) const;

  [[nodiscard]] std::uint64_t max_bytes() const noexcept { return max_bytes_; }

  /// Evict oldest shards (by modification time, then filename for
  /// same-stamp determinism) until the directory's total `payoff-*.pgpc`
  /// size fits under max_bytes(). Returns the number of shard files
  /// removed; 0 when disabled, uncapped, already within the cap, or the
  /// filesystem refuses (logged, not thrown). The engine runs this once
  /// after spilling, so a freshly-written shard is the newest and only
  /// falls to the cap when it alone exceeds it.
  std::size_t enforce_max_bytes() const;

  /// Serialize/deserialize the v1 format (exposed for tests).
  [[nodiscard]] static std::string encode(
      const std::vector<std::pair<std::uint64_t, double>>& entries);
  /// Returns false (leaving `entries` empty) on any malformed input.
  [[nodiscard]] static bool decode(
      const std::string& bytes,
      std::vector<std::pair<std::uint64_t, double>>& entries);

 private:
  std::string dir_;
  std::uint64_t max_bytes_ = 0;
};

}  // namespace pg::runtime
