#include "runtime/executor.h"

#include <algorithm>
#include <exception>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace pg::runtime {

namespace {

/// Yield rounds an idle worker polls the queue before sleeping: back-to-
/// back loops (one evaluation's cells, then the next's) arrive close
/// together, and a short spin keeps workers hot across that gap.
constexpr int kWorkerSpinRounds = 64;

/// Rounds a joiner with nothing eligible to run polls (yielding every
/// 16th) before it sleeps on its loop's condition variable.
constexpr int kJoinSpinRounds = 128;

/// Nesting depth of the chunk the current thread is executing: 0 outside
/// any chunk, 1 inside a top-level loop's chunk, 2 inside a chunk that
/// chunk's loop queued, ... . A loop issued from this thread queues its
/// chunks at tls_depth + 1, and its join only runs chunks at least that
/// deep, so a blocked thread never picks up work shallower than what it
/// waits for.
thread_local std::size_t tls_depth = 0;

/// Static span name per chunk depth: depth is almost always 1 or 2, and
/// a fixed name keeps the traced hot path free of string builds.
const char* chunk_span_name(std::size_t depth) {
  if (depth <= 1) return "worker_task";
  if (depth == 2) return "worker_task_d2";
  return "worker_task_deep";
}

/// Calls fn over [lo, hi) at nesting level `depth`; returns what it threw.
std::exception_ptr run_range(std::size_t depth, std::size_t lo,
                             std::size_t hi,
                             const std::function<void(std::size_t)>& fn) {
  const std::size_t prev_depth = tls_depth;
  tls_depth = depth;
  std::exception_ptr error;
  try {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  } catch (...) {
    error = std::current_exception();
  }
  tls_depth = prev_depth;
  return error;
}

}  // namespace

/// One parallel_for call's completion state. It lives on the issuing
/// thread's stack: every field is guarded by the executor's mutex_, and
/// the issuer leaves only after it has seen `pending` reach 0 under that
/// mutex, so no chunk touches a Loop that is gone.
struct Executor::Loop {
  const std::function<void(std::size_t)>* fn;
  std::size_t pending;           // queued chunks not yet finished
  std::exception_ptr error;      // first failure wins
  std::condition_variable done;  // pending reached 0
};

Executor::Executor(std::size_t threads)
    : width_(threads != 0 ? threads
                          : std::max(1U, std::thread::hardware_concurrency())) {
  if (width_ == 1) return;
  // Register the obs.pool.* family up front so the metric SET of a run on
  // workers is deterministic: a run whose joins never ran a queued chunk
  // still reports tasks_inline=0 instead of omitting the key.
  (void)obs::counter("obs.pool.tasks_executed");
  (void)obs::counter("obs.pool.tasks_inline");
  (void)obs::gauge("obs.pool.queue_high_water");
  workers_.reserve(width_);
  try {
    for (std::size_t i = 0; i < width_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop_workers();
    throw;
  }
}

Executor::~Executor() { stop_workers(); }

void Executor::stop_workers() noexcept {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::optional<Executor::Chunk> Executor::pop(std::size_t min_depth) {
  for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
    if (it->depth < min_depth) continue;
    const Chunk chunk = *it;
    queue_.erase(std::next(it).base());
    return chunk;
  }
  return std::nullopt;
}

void Executor::run(const Chunk& chunk, std::unique_lock<std::mutex>& lock) {
  lock.unlock();
  std::exception_ptr error;
  {
    obs::Span span(chunk_span_name(chunk.depth), "pool");
    error = run_range(chunk.depth, chunk.lo, chunk.hi, *chunk.loop->fn);
  }
  lock.lock();
  Loop& loop = *chunk.loop;
  if (error && !loop.error) loop.error = error;
  // Notify while still holding mutex_: once it is released the issuer
  // may return and destroy `loop`.
  if (--loop.pending == 0) loop.done.notify_all();
}

void Executor::worker_loop() {
  static obs::Counter& executed = obs::counter("obs.pool.tasks_executed");
  std::unique_lock<std::mutex> lock(mutex_);
  int idle = 0;
  while (!stop_) {
    if (const std::optional<Chunk> chunk = pop(0)) {
      executed.add(1);
      run(*chunk, lock);
      idle = 0;
    } else if (idle < kWorkerSpinRounds) {
      ++idle;
      lock.unlock();
      std::this_thread::yield();
      lock.lock();
    } else {
      work_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      idle = 0;
    }
  }
}

void Executor::parallel_for(std::size_t begin, std::size_t end,
                            std::size_t grain,
                            const std::function<void(std::size_t)>& fn) {
  PG_CHECK(fn != nullptr, "parallel_for: null body");
  if (end <= begin) return;
  if (grain == 0) grain = 1;

  const std::size_t chunks = (end - begin + grain - 1) / grain;
  if (chunks == 1 || workers_.empty()) {
    // Queueing buys nothing with one chunk or no worker; identical
    // results by the determinism contract.
    static obs::Counter& inline_loops = obs::counter("obs.exec.inline");
    inline_loops.add(1);
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  static obs::Counter& dispatched = obs::counter("obs.exec.dispatch");
  dispatched.add(1);

  // The depth this call's chunks run at: one level below the caller.
  const std::size_t depth = tls_depth + 1;
  Loop loop{&fn, chunks - 1, nullptr, {}};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Reserve first, so no push below can throw with chunks of `loop`
    // already queued.
    queue_.reserve(queue_.size() + chunks - 1);
    for (std::size_t lo = begin + grain; lo < end; lo += grain) {
      queue_.push_back({&loop, lo, std::min(lo + grain, end), depth});
    }
    static obs::Gauge& high_water = obs::gauge("obs.pool.queue_high_water");
    high_water.record(queue_.size());
  }
  for (std::size_t c = 1; c < chunks; ++c) work_.notify_one();

  // The caller runs chunk 0 itself and only waits on the rest: one less
  // queued chunk, and the fork-join never idles the issuing thread.
  const std::exception_ptr first =
      run_range(depth, begin, std::min(begin + grain, end), fn);

  // Join: run queued chunks no shallower than our own (chunk bodies
  // never block indefinitely -- any nested join inside them follows this
  // same rule), then spin briefly before sleeping until the last chunk
  // finishes.
  static obs::Counter& inline_runs = obs::counter("obs.pool.tasks_inline");
  std::unique_lock<std::mutex> lock(mutex_);
  if (first && !loop.error) loop.error = first;
  int spin = 0;
  while (loop.pending > 0) {
    if (const std::optional<Chunk> chunk = pop(depth)) {
      inline_runs.add(1);
      run(*chunk, lock);
      spin = 0;
    } else if (spin < kJoinSpinRounds) {
      lock.unlock();
      if (++spin % 16 == 0) std::this_thread::yield();
      lock.lock();
    } else {
      loop.done.wait(lock, [&loop] { return loop.pending == 0; });
    }
  }
  lock.unlock();
  if (loop.error) std::rethrow_exception(loop.error);
}

Executor& serial_executor() noexcept {
  static Executor instance(1);
  return instance;
}

}  // namespace pg::runtime
