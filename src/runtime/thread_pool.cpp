#include "runtime/thread_pool.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace pg::runtime {

namespace {
/// How many yield rounds a worker polls the deques before sleeping on the
/// condition variable. Back-to-back loops (one evaluation's cells, then
/// the next's) arrive close together; a short spin keeps workers hot
/// across that gap without burning meaningful CPU when the pool is
/// genuinely idle.
constexpr int kSpinRounds = 64;

/// Static span name per task nesting depth: depth is almost always 1 or
/// 2, and a fixed name keeps the traced hot path free of string builds.
const char* task_span_name(std::size_t depth) {
  if (depth <= 1) return "worker_task";
  if (depth == 2) return "worker_task_d2";
  return "worker_task_deep";
}
}  // namespace

std::size_t default_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads) {
  // Register the full obs.pool.* family up front so the metric SET is
  // deterministic: a run with zero steals still reports tasks_stolen=0
  // instead of omitting the key (consumers assert on presence).
  (void)obs::counter("obs.pool.tasks_executed");
  (void)obs::counter("obs.pool.tasks_stolen");
  (void)obs::counter("obs.pool.tasks_inline");
  (void)obs::gauge("obs.pool.queue_high_water");
  const std::size_t n = threads == 0 ? default_thread_count() : threads;
  deques_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    deques_.push_back(std::make_unique<Deque>());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    // Empty critical section: a worker that checked the predicate before
    // the store is guaranteed to be inside wait() by the time we notify.
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task, std::size_t depth) {
  PG_CHECK(task != nullptr, "ThreadPool::submit: null task");
  PG_CHECK(!stop_.load(std::memory_order_acquire),
           "ThreadPool::submit after shutdown");
  const std::size_t victim =
      next_deque_.fetch_add(1, std::memory_order_relaxed) % deques_.size();
  // Increment BEFORE publishing the task: a pop can only follow the push,
  // so the matching decrement can never land first and transiently wrap
  // the counter. A worker waking in the window just finds nothing yet.
  const std::size_t queued =
      pending_.fetch_add(1, std::memory_order_release) + 1;
  static obs::Gauge& high_water = obs::gauge("obs.pool.queue_high_water");
  high_water.record(queued);
  {
    std::lock_guard<std::mutex> lock(deques_[victim]->mutex);
    deques_[victim]->tasks.push_back(Task{std::move(task), depth});
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  cv_.notify_one();
}

ThreadPool::Task ThreadPool::take_task(std::size_t self,
                                       std::size_t min_depth) {
  const std::size_t n = deques_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (self + k) % n;
    Deque& d = *deques_[victim];
    std::lock_guard<std::mutex> lock(d.mutex);
    if (d.tasks.empty()) continue;
    // Own deque: newest-first (cache-hot, and the deepest nesting level
    // sits at the back). Steal: oldest-first. Either way, skip past
    // entries shallower than min_depth -- a depth-constrained joiner must
    // not be diverted into outer-level work -- and take the first
    // eligible one. Skipped entries stay queued for the workers' own
    // unconstrained (min_depth == 0) scans.
    Task task;
    if (victim == self) {
      for (auto it = d.tasks.rbegin(); it != d.tasks.rend(); ++it) {
        if (it->depth < min_depth) continue;
        task = std::move(*it);
        d.tasks.erase(std::next(it).base());
        break;
      }
    } else {
      for (auto it = d.tasks.begin(); it != d.tasks.end(); ++it) {
        if (it->depth < min_depth) continue;
        task = std::move(*it);
        d.tasks.erase(it);
        break;
      }
    }
    if (!task.fn) continue;
    pending_.fetch_sub(1, std::memory_order_relaxed);
    if (victim != self && self < n) {
      // A worker crossing deques is a genuine steal; external threads
      // (self == n) are counted at their call sites instead.
      static obs::Counter& stolen = obs::counter("obs.pool.tasks_stolen");
      stolen.add(1);
    }
    return task;
  }
  return {};
}

bool ThreadPool::try_run_one(std::size_t min_depth) {
  // size() as `self` never equals a worker index, so the scan is
  // steal-only and starts at deque 0.
  Task task = take_task(deques_.size(), min_depth);
  if (!task.fn) return false;
  static obs::Counter& inline_runs = obs::counter("obs.pool.tasks_inline");
  inline_runs.add(1);
  obs::Span span(task_span_name(task.depth), "pool");
  task.fn();
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) return;
    Task task = take_task(index, 0);
    for (int spin = 0; !task.fn && spin < kSpinRounds; ++spin) {
      if (stop_.load(std::memory_order_acquire)) return;
      std::this_thread::yield();
      task = take_task(index, 0);
    }
    if (!task.fn) {
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) ||
               pending_.load(std::memory_order_acquire) > 0;
      });
      continue;  // re-check stop_ and race for the task at the loop top
    }
    static obs::Counter& executed = obs::counter("obs.pool.tasks_executed");
    executed.add(1);
    obs::Span span(task_span_name(task.depth), "pool");
    task.fn();  // exceptions are the task's responsibility (see executor.cpp)
  }
}

}  // namespace pg::runtime
