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
// NESTED SCHEDULING: every loop in the library is coarse (a grid point,
// a retrain-priced payoff cell, a whole row of analytic cells, a
// defense-ablation pipeline run), so parallel_for dispatches onto the
// SAME work-stealing pool even when it is called from inside one of the
// pool's own tasks: the chunks are depth-tagged one level below the
// caller, the caller runs the first chunk itself and help-drains tasks
// at least that deep while joining, so the join can neither deadlock
// (its own chunks are always eligible to run on the joining thread) nor
// be diverted into an unbounded outer-level task. Grid points under the
// scenario engine and the payoff cells under each point share one pool
// this way.
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
  /// dispatching contiguous chunks of `grain` indices as tasks, also when
  /// called from inside one of this executor's own tasks (see the file
  /// comment). grain == 0 is treated as 1. Exceptions from fn propagate
  /// to the caller.
  virtual void parallel_for(std::size_t begin, std::size_t end,
                            std::size_t grain,
                            const std::function<void(std::size_t)>& fn) = 0;
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
/// itself and helps drain queued chunks while waiting, so even a
/// two-chunk loop overlaps. Reentrancy-safe: a parallel_for issued from
/// inside one of this executor's own loop bodies dispatches too, with a
/// depth-tagged, help-first join that cannot deadlock on the saturated
/// pool (see the file comment).
class ThreadPoolExecutor final : public Executor {
 public:
  /// 0 threads means default_thread_count().
  explicit ThreadPoolExecutor(std::size_t threads = 0) : pool_(threads) {}

  [[nodiscard]] std::size_t concurrency() const noexcept override {
    return pool_.size();
  }
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t)>& fn) override;

 private:
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

}  // namespace pg::runtime
