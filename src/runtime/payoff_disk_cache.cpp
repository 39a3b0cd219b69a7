#include "runtime/payoff_disk_cache.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/metrics.h"
#include "robust/atomic_file.h"
#include "robust/faultpoint.h"
#include "util/env.h"
#include "util/logging.h"

namespace pg::runtime {

namespace {

// "PGPCACH1" as a little-endian u64: magic and version in one word.
constexpr std::uint64_t kMagic = 0x3148434143504750ULL;

void put_u64(std::string& out, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<char>((word >> (8 * b)) & 0xFFU));
  }
}

std::uint64_t get_u64(const std::string& in, std::size_t offset) {
  std::uint64_t word = 0;
  for (int b = 0; b < 8; ++b) {
    word |= static_cast<std::uint64_t>(
                static_cast<unsigned char>(in[offset + b]))
            << (8 * b);
  }
  return word;
}

std::uint64_t fnv1a(std::uint64_t state, std::uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    state ^= (word >> (8 * b)) & 0xFFU;
    state *= 0x100000001B3ULL;
  }
  return state;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string hex16(std::uint64_t word) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[word & 0xFU];
    word >>= 4;
  }
  return s;
}

/// Whether `name` is a file name the cache writes: `payoff-*.pgpc`.
bool is_shard_name(std::string_view name) {
  static constexpr std::string_view kPrefix = "payoff-";
  static constexpr std::string_view kSuffix = ".pgpc";
  return name.size() > kPrefix.size() + kSuffix.size() &&
         name.substr(0, kPrefix.size()) == kPrefix &&
         name.substr(name.size() - kSuffix.size()) == kSuffix;
}

}  // namespace

std::string DiskPayoffCache::env_dir() {
  return util::env_string("PG_CACHE_DIR");
}

std::string DiskPayoffCache::shard_path(std::uint64_t shard) const {
  return (std::filesystem::path(dir_) / ("payoff-" + hex16(shard) + ".pgpc"))
      .string();
}

std::string DiskPayoffCache::encode(
    const std::vector<std::pair<std::uint64_t, double>>& entries) {
  std::string out;
  out.reserve(8 * (3 + 2 * entries.size()));
  put_u64(out, kMagic);
  put_u64(out, static_cast<std::uint64_t>(entries.size()));
  std::uint64_t checksum = 0xCBF29CE484222325ULL;
  for (const auto& [key, value] : entries) {
    const std::uint64_t bits = double_bits(value);
    put_u64(out, key);
    put_u64(out, bits);
    checksum = fnv1a(fnv1a(checksum, key), bits);
  }
  put_u64(out, checksum);
  return out;
}

bool DiskPayoffCache::decode(
    const std::string& bytes,
    std::vector<std::pair<std::uint64_t, double>>& entries) {
  entries.clear();
  if (bytes.size() < 24 || bytes.size() % 8 != 0) return false;
  if (get_u64(bytes, 0) != kMagic) return false;
  const std::uint64_t count = get_u64(bytes, 8);
  // Bound-check BEFORE the arithmetic below: a corrupt count near 2^61
  // would overflow 8 * (3 + 2 * count) and could slip past the equality.
  if (count > (bytes.size() - 24) / 16) return false;
  if (bytes.size() != 8 * (3 + 2 * count)) return false;
  std::uint64_t checksum = 0xCBF29CE484222325ULL;
  entries.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t key = get_u64(bytes, 16 + 16 * i);
    const std::uint64_t bits = get_u64(bytes, 24 + 16 * i);
    checksum = fnv1a(fnv1a(checksum, key), bits);
    entries.emplace_back(key, bits_double(bits));
  }
  if (checksum != get_u64(bytes, bytes.size() - 8)) {
    entries.clear();
    return false;
  }
  return true;
}

std::size_t DiskPayoffCache::load(std::uint64_t shard,
                                  PayoffCache& into) const {
  if (!enabled()) return 0;
  const std::string path = shard_path(shard);
  robust::faultpoint("cache.load", shard);
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;  // no shard yet: a cold run, not an error
  std::ostringstream buf;
  buf << in.rdbuf();
  std::vector<std::pair<std::uint64_t, double>> entries;
  if (!decode(buf.str(), entries)) {
    static obs::Counter& failures = obs::counter("obs.disk.checksum_failures");
    failures.add(1);
    // Quarantine the poisoned file: left in place it would be re-read
    // and re-rejected on every later run. The rename keeps the bytes for
    // post-mortem while the .corrupt extension hides it from both this
    // loader and the eviction scan (which only touches *.pgpc).
    in.close();
    std::error_code ec;
    std::filesystem::rename(path, path + ".corrupt", ec);
    if (ec) std::filesystem::remove(path, ec);
    static obs::Counter& quarantined = obs::counter("obs.cache.quarantined");
    quarantined.add(1);
    util::log_warn() << "payoff disk cache: quarantined corrupt shard "
                     << path << " (likely a truncated or torn write); "
                     << "this run degrades to a cold retrain";
    return 0;
  }
  into.preload(entries);
  static obs::Counter& loaded = obs::counter("obs.disk.entries_loaded");
  loaded.add(entries.size());
  return entries.size();
}

std::size_t DiskPayoffCache::save(std::uint64_t shard,
                                  const PayoffCache& cache) const {
  if (!enabled()) return 0;
  const auto entries = cache.snapshot();
  if (entries.empty()) return 0;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    util::log_warn() << "payoff disk cache: cannot create " << dir_ << ": "
                     << ec.message();
    return 0;
  }
  const std::string path = shard_path(shard);
  // Cache persistence is best-effort by contract: a refused write (or an
  // injected cache.store fault) degrades to "this run's retrains are not
  // reused", never to a failed run.
  try {
    robust::atomic_write_file(path, encode(entries), "cache.store", shard);
  } catch (const std::exception& e) {
    util::log_warn() << "payoff disk cache: cannot write " << path << ": "
                     << e.what();
    return 0;
  }
  static obs::Counter& saved = obs::counter("obs.disk.entries_saved");
  saved.add(entries.size());
  return entries.size();
}

std::size_t DiskPayoffCache::enforce_max_bytes() const {
  if (!enabled()) return 0;
  struct Shard {
    std::filesystem::file_time_type mtime;
    std::string name;  // same-mtime tiebreak, so eviction is deterministic
    std::uintmax_t bytes;
    std::filesystem::path path;
  };
  std::vector<Shard> shards;
  std::vector<std::filesystem::path> orphans;
  std::uintmax_t total = 0;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) return 0;  // unreadable/missing dir: nothing to evict
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    // A writer killed between write and rename leaves its temp file
    // behind for good, and a later save only sweeps its own shard's.
    if (is_shard_name(robust::dead_writer_target(name))) {
      orphans.push_back(entry.path());
      continue;
    }
    // Never touch files the cache did not write; size shards only when
    // there is a cap to enforce.
    if (max_bytes_ == 0 || !is_shard_name(name)) continue;
    const std::uintmax_t bytes = entry.file_size(ec);
    if (ec) continue;
    const auto mtime = entry.last_write_time(ec);
    if (ec) continue;
    total += bytes;
    shards.push_back({mtime, name, bytes, entry.path()});
  }
  std::size_t removed_orphans = 0;
  for (const auto& path : orphans) {
    if (std::filesystem::remove(path, ec)) ++removed_orphans;
  }
  if (removed_orphans > 0) {
    util::log_warn() << "payoff disk cache: removed " << removed_orphans
                     << " temp file(s) of dead writers in " << dir_;
  }
  if (max_bytes_ == 0 || total <= max_bytes_) return 0;
  std::sort(shards.begin(), shards.end(), [](const Shard& a, const Shard& b) {
    return std::tie(a.mtime, a.name) < std::tie(b.mtime, b.name);
  });
  std::size_t evicted = 0;
  for (const Shard& shard : shards) {
    if (total <= max_bytes_) break;
    const bool removed = std::filesystem::remove(shard.path, ec);
    if (ec) {
      util::log_warn() << "payoff disk cache: cannot evict " << shard.name
                       << ": " << ec.message();
      continue;
    }
    // Either way the shard no longer occupies the directory, so it stops
    // counting against the budget -- but only an unlink WE performed is an
    // eviction. `removed == false` (no error) means a concurrent worker
    // sharing this cache dir already removed it between directory_iterator
    // and here: multi-process steady state, silent by design.
    total -= shard.bytes;
    if (removed) ++evicted;
  }
  if (evicted > 0) {
    static obs::Counter& obs_evicted = obs::counter("obs.disk.shards_evicted");
    obs_evicted.add(evicted);
    util::log_warn() << "payoff disk cache: evicted " << evicted
                     << " oldest shard(s) to fit " << max_bytes_
                     << " bytes in " << dir_;
  }
  return evicted;
}

}  // namespace pg::runtime
