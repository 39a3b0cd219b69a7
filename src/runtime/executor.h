// Execution strategy for data-parallel loops.
//
// Every grid/sweep entry point in the library takes an optional
// runtime::Executor*; null means "run serially, inline". The contract that
// makes the swap safe is DETERMINISM BY CONSTRUCTION: a loop body handed
// to parallel_for must depend only on its index (deriving any randomness
// from an RngStreamFactory, never from shared mutable state), so the
// result is bit-identical whether the loop runs inline, on one worker, or
// on sixteen.
//
// parallel_for blocks until every index has run. If one or more loop
// bodies throw, the first exception (in chunk submission order, best
// effort) is rethrown on the calling thread after all chunks finish or
// abandon; the executor remains usable afterwards.
//
// NESTED SCHEDULING: parallel_for called from inside one of the pool's
// own tasks runs inline (the cheap, always-safe choice for fine-grained
// solver loops). parallel_for_nested instead dispatches its chunks onto
// the SAME work-stealing pool even from a worker thread: the chunks are
// depth-tagged one level below the caller, the caller runs the first
// chunk itself and help-drains tasks at least that deep while joining,
// so the join can neither deadlock (its own chunks are always eligible
// to run on the joining thread) nor be diverted into an unbounded
// outer-level task. Coarse inner loops -- payoff cells under a sweep
// point, grid points under the scenario engine -- use it to share one
// pool across nesting levels.
#pragma once

#include <cstddef>
#include <functional>

#include "runtime/thread_pool.h"

namespace pg::runtime {

class Executor {
 public:
  virtual ~Executor() = default;

  /// Worker count available to parallel_for (1 for the serial executor).
  [[nodiscard]] virtual std::size_t concurrency() const noexcept = 0;

  /// Blocking loop: calls fn(i) exactly once for every i in [begin, end),
  /// dispatching contiguous chunks of `grain` indices as tasks. grain == 0
  /// is treated as 1. Exceptions from fn propagate to the caller.
  virtual void parallel_for(std::size_t begin, std::size_t end,
                            std::size_t grain,
                            const std::function<void(std::size_t)>& fn) = 0;

  /// Nesting-aware variant: identical contract, but a call issued from
  /// inside one of this executor's own tasks still dispatches chunks to
  /// the shared pool (depth-tagged; see the file comment) instead of
  /// collapsing inline. Use it for coarse loop bodies that are worth
  /// spreading across idle workers even mid-task; keep plain parallel_for
  /// for fine-grained per-iteration loops. Executors without a pool run
  /// it as plain parallel_for.
  virtual void parallel_for_nested(std::size_t begin, std::size_t end,
                                   std::size_t grain,
                                   const std::function<void(std::size_t)>& fn) {
    parallel_for(begin, end, grain, fn);
  }
};

/// Runs every index inline on the calling thread, in order.
class SerialExecutor final : public Executor {
 public:
  [[nodiscard]] std::size_t concurrency() const noexcept override { return 1; }
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t)>& fn) override;
};

/// Dispatches chunks onto a fixed-size work-stealing ThreadPool owned by
/// the executor. The calling thread participates: it runs the first chunk
/// itself and helps drain queued chunks while waiting, so even a two-chunk
/// loop (e.g. one solver iteration's row scan + column scan) overlaps.
/// Reentrancy-safe: a parallel_for issued from inside one of this
/// executor's own loop bodies runs inline on the calling worker instead
/// of deadlocking on the saturated pool; parallel_for_nested dispatches
/// even then (depth-tagged, help-first join -- see the file comment).
class ThreadPoolExecutor final : public Executor {
 public:
  /// 0 threads means default_thread_count().
  explicit ThreadPoolExecutor(std::size_t threads = 0) : pool_(threads) {}

  [[nodiscard]] std::size_t concurrency() const noexcept override {
    return pool_.size();
  }
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t)>& fn) override;
  void parallel_for_nested(
      std::size_t begin, std::size_t end, std::size_t grain,
      const std::function<void(std::size_t)>& fn) override;

 private:
  void dispatch(std::size_t begin, std::size_t end, std::size_t grain,
                std::size_t chunks, const std::function<void(std::size_t)>& fn);

  ThreadPool pool_;
};

/// Process-wide shared SerialExecutor (the null-executor fallback).
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

/// Free-function form of the nesting-aware loop.
inline void parallel_for_nested(Executor* executor, std::size_t begin,
                                std::size_t end, std::size_t grain,
                                const std::function<void(std::size_t)>& fn) {
  executor_or_serial(executor).parallel_for_nested(begin, end, grain, fn);
}

}  // namespace pg::runtime
