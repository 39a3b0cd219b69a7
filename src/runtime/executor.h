// Execution strategy for data-parallel loops.
//
// The sim/ entry points reach an Executor through their
// runtime::PayoffEvaluator; the core/ grid entry points (discretize,
// analyze_pure_equilibria) take an optional runtime::Executor*, null
// meaning "run serially, inline". The contract that makes the swap safe
// is DETERMINISM BY CONSTRUCTION: a loop body handed
// to parallel_for must depend only on its index (deriving any randomness
// from an RngStreamFactory, never from shared mutable state), so the
// result is bit-identical whether the loop runs inline, on one worker, or
// on sixteen.
//
// parallel_for blocks until every index has run. If one or more loop
// bodies throw, the first exception (best effort) is rethrown on the
// calling thread after all chunks finish or abandon; the executor
// remains usable afterwards.
//
// SCHEDULING: an Executor owns its worker threads and ONE queue of loop
// chunks under one mutex. Every loop in the library is coarse (a grid
// point, a retrain-priced payoff cell, a whole row of analytic cells, one
// of solver_ablation's two games), so parallel_for queues onto the SAME
// executor even when called from inside one of its own chunks. The
// caller runs chunk 0 itself and tags the rest one nesting level below
// its own; while joining it only runs queued chunks at least that deep,
// so the join can neither deadlock (its own chunks always qualify) nor
// be diverted into an unbounded outer-level chunk. Workers and joiners
// alike take the NEWEST eligible chunk: the work most recently forked,
// usually the joiner's own loop's or one nested below it. Grid points
// under the scenario engine and the payoff cells under each point share
// one executor this way.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace pg::runtime {

class Executor {
 public:
  /// 0 threads takes the hardware concurrency (at least 1). 1 starts no
  /// thread: every loop runs inline on the calling thread, in order.
  /// n > 1 starts n workers, and the thread issuing a loop joins in.
  explicit Executor(std::size_t threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Threads a loop can spread over: the worker count, 1 when inline.
  [[nodiscard]] std::size_t concurrency() const noexcept { return width_; }

  /// Blocking loop: calls fn(i) exactly once for every i in [begin, end),
  /// in contiguous chunks of `grain` indices (0 is treated as 1). A loop
  /// with one chunk, or on an executor without workers, runs inline.
  /// Exceptions from fn propagate to the caller.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t)>& fn);

 private:
  struct Loop;
  struct Chunk {
    Loop* loop;
    std::size_t lo;
    std::size_t hi;
    std::size_t depth;  // 1 for a loop issued outside any chunk
  };

  void worker_loop();
  /// Removes and returns the newest queued chunk at least `min_depth`
  /// deep. Caller holds mutex_.
  std::optional<Chunk> pop(std::size_t min_depth);
  /// Runs `chunk` with `lock` (on mutex_) released, then retires it.
  void run(const Chunk& chunk, std::unique_lock<std::mutex>& lock);
  void stop_workers() noexcept;

  std::size_t width_;
  std::mutex mutex_;
  std::condition_variable work_;  // a chunk was queued, or stop_ was set
  std::vector<Chunk> queue_;      // guarded by mutex_; newest at the back
  bool stop_ = false;             // guarded by mutex_
  std::vector<std::thread> workers_;
};

/// Process-wide shared Executor(1) (the null-executor fallback).
[[nodiscard]] Executor& serial_executor() noexcept;

/// Resolve the optional-executor convention used across sim/ and core/.
[[nodiscard]] inline Executor& executor_or_serial(Executor* executor) noexcept {
  return executor != nullptr ? *executor : serial_executor();
}

/// Free-function form used by call sites that hold an optional pointer.
inline void parallel_for(Executor* executor, std::size_t begin,
                         std::size_t end, std::size_t grain,
                         const std::function<void(std::size_t)>& fn) {
  executor_or_serial(executor).parallel_for(begin, end, grain, fn);
}

}  // namespace pg::runtime
