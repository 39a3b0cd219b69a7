// Process-wide metrics registry: named counters, high-water gauges, and
// histogram timers, cheap enough to leave on in every hot path.
//
// Design constraints, in order:
//  1. A hot-path increment must cost ONE relaxed atomic add on a
//     cache-line-private shard -- no lock, no shared line ping-pong.
//     Counters and timers keep kMetricShards padded slots; each thread
//     hashes to a stable slot, and value()/stats() fold the shards on
//     read (reads are rare: once per scenario run).
//  2. Instrumented code must not pay a registry lookup per event. Call
//     sites hold a `static obs::Counter& c = obs::counter("name");`
//     function-local -- one registration ever, then a direct reference.
//     Registered metrics live for the process (the registry never
//     shrinks), so cached references cannot dangle.
//  3. The whole subsystem compiles out: configuring with -DPG_OBS=OFF
//     defines PG_OBS_DISABLED (PUBLIC on the library target), and every
//     recording call below becomes an empty inline function -- zero
//     code, zero atomics, zero bytes of state. snapshot_metrics() then
//     returns nothing, so sinks degrade to empty sections instead of
//     lying with zeros.
//
// Values are APPROXIMATE under concurrency in exactly one sense: a
// snapshot taken while threads are mid-increment can miss in-flight adds
// (relaxed ordering). Once the instrumented work has joined -- the only
// time the engine reads -- folds are exact; tests/obs_test.cpp asserts
// concurrent increments fold to the exact total after the join.
//
// Naming convention: dotted lowercase paths, `obs.<subsystem>.<what>`
// (obs.pool.tasks_executed, obs.cache.hits, obs.engine.point_wall).
// scenario/diff.cpp excludes `obs.*` metric keys from golden comparison
// by that prefix, so instrumentation can never destabilize a baseline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#ifndef PG_OBS_DISABLED
#include <atomic>
#include <chrono>
#endif

namespace pg::obs {

/// One registered metric, folded for reporting. Counters fill `count`
/// only; gauges put the high-water mark in `count`; timers fill all
/// fields (durations in milliseconds).
struct MetricSnapshot {
  enum class Kind { kCounter, kGauge, kTimer };
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
};

#ifndef PG_OBS_DISABLED

/// Shard count for counter/timer slots. A power of two so the per-thread
/// slot is a mask, sized past the core counts this library targets --
/// two threads sharing a slot is a throughput nuisance, never an error.
inline constexpr std::size_t kMetricShards = 16;

namespace detail {
/// Stable per-thread shard slot in [0, kMetricShards).
[[nodiscard]] std::size_t thread_shard() noexcept;

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> value{0};
};
}  // namespace detail

/// Monotonic event count. add() is one relaxed fetch_add on the calling
/// thread's shard.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    shards_[detail::thread_shard()].value.fetch_add(n,
                                                    std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept;
  void reset() noexcept;

 private:
  detail::PaddedU64 shards_[kMetricShards];
};

/// High-water mark (queue depths, sizes). record() keeps the maximum via
/// a CAS loop on one shared atomic -- gauges sit on enqueue/submit paths
/// that already take locks, so sharing one line is fine there.
class Gauge {
 public:
  void record(std::uint64_t v) noexcept {
    std::uint64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen && !max_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { max_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> max_{0};
};

/// Duration accumulator: count, total, min, max in nanoseconds, sharded
/// like Counter. The summary (not a full histogram) is what a metrics
/// snapshot reports; min/max bound the distribution well enough to spot
/// a stall without per-event storage.
class Timer {
 public:
  struct Stats {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
  };

  void record_ns(std::uint64_t ns) noexcept;
  [[nodiscard]] Stats stats() const noexcept;
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> total{0};
    std::atomic<std::uint64_t> min{~0ULL};
    std::atomic<std::uint64_t> max{0};
  };
  Shard shards_[kMetricShards];
};

/// RAII wall-clock sample into a Timer.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer) noexcept
      : timer_(timer), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - start_);
    timer_.record_ns(static_cast<std::uint64_t>(ns.count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer& timer_;
  std::chrono::steady_clock::time_point start_;
};

#else  // PG_OBS_DISABLED: the same API as empty inline functions.

class Counter {
 public:
  void add(std::uint64_t = 1) noexcept {}
  [[nodiscard]] std::uint64_t value() const noexcept { return 0; }
  void reset() noexcept {}
};

class Gauge {
 public:
  void record(std::uint64_t) noexcept {}
  [[nodiscard]] std::uint64_t max() const noexcept { return 0; }
  void reset() noexcept {}
};

class Timer {
 public:
  struct Stats {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
  };
  void record_ns(std::uint64_t) noexcept {}
  [[nodiscard]] Stats stats() const noexcept { return {}; }
  void reset() noexcept {}
};

class ScopedTimer {
 public:
  explicit ScopedTimer(Timer&) noexcept {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
};

#endif  // PG_OBS_DISABLED

/// Find-or-register by name. References stay valid for the process
/// lifetime; a name registers as exactly one kind (re-registering under
/// a different kind throws std::invalid_argument). Compiled out, these
/// return shared no-op instances.
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Timer& timer(std::string_view name);

/// Every registered metric, sorted by name, with timer durations
/// converted to milliseconds. Empty when compiled out.
[[nodiscard]] std::vector<MetricSnapshot> snapshot_metrics();

/// Zero every registered metric (the registration set is untouched).
/// The scenario engine calls this at the start of an instrumented run so
/// a snapshot at the end describes that run alone.
void reset_metrics();

}  // namespace pg::obs
