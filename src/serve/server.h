// The resident scenario service behind pg_serve.
//
// One ScenarioServer owns the process-wide execution substrate -- a
// single Executor, a shared scenario::ShardStore (warm payoff shards +
// disk cache), and the observability lifecycle -- and serves ScenarioSpec
// requests over a local (AF_UNIX) stream socket using the framing in
// serve/protocol.h. Request flow:
//
//   accept thread --> one reader thread per connection
//     parse frame -> resolve spec (RequestOptions; server execution-
//     envelope overrides win) -> admit into the bounded priority queue
//     (or reject: queue_full) -> wait for the outcome -> write response
//   worker threads (request_workers of them)
//     pop lowest (priority, arrival) -> drop if past deadline_ms ->
//     run_scenario(spec, EngineContext) -> ok envelope
//
// Because every request runs on the ONE executor and ONE shard store,
// a warm repeat request retrains zero cells, and concurrent requests
// hitting the same cold cell coalesce in runtime::memoize (single-flight
// per cell) instead of computing it twice.
//
// Protocol errors degrade per the versioning contract: an unparseable
// header cannot be resynced (its length is unknown), so the connection
// gets one best-effort `bad_request` error frame and is closed; a known-
// length problem (unsupported major version, oversized body, spec that
// fails to resolve, execution failure) consumes the body, answers a
// structured error envelope, and KEEPS the connection -- one bad request
// never takes the server down.
//
// Shutdown: request_stop() is async-signal-safe (atomic store + one
// self-pipe write, for SIGTERM/SIGINT handlers); wait() then drains --
// stop accepting, EOF the open connections, finish every admitted
// request, spill the shard store to disk, and write the metrics/trace
// artifacts. Per-request observability: obs.serve.requests/errors/
// rejected counters, obs.serve.queue_depth gauge, obs.serve.queue_wait
// and obs.serve.request_wall timers, and a "request:<id>" span per
// executed request.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/executor.h"
#include "scenario/cache_bundle.h"

namespace pg::serve {

struct ServeOptions {
  std::string socket_path;
  /// Executor width shared by every request (0 = all cores).
  std::size_t threads = 0;
  /// Concurrent scenario executions (each fans out on the executor).
  std::size_t request_workers = 2;
  /// Admission bound: requests past this many queued are rejected with a
  /// `queue_full` error instead of waiting.
  std::size_t queue_limit = 64;
  /// Longest accepted request body (spec text).
  std::size_t max_request_bytes = 1 << 20;
  bool use_cache = true;
  /// Empty = $PG_CACHE_DIR (same fallback as the standalone engine).
  std::string cache_dir;
  std::uint64_t cache_max_bytes = 0;
  /// Chrome-trace path written at drain ("" = tracing off).
  std::string trace;
  /// Metrics snapshot path written at drain ("" = off).
  std::string metrics_out;
};

class ScenarioServer {
 public:
  explicit ScenarioServer(ServeOptions options);
  /// Joins everything (drains if start() succeeded and stop() was never
  /// called).
  ~ScenarioServer();

  ScenarioServer(const ScenarioServer&) = delete;
  ScenarioServer& operator=(const ScenarioServer&) = delete;

  /// Bind + listen + spawn the accept and worker threads. Throws on a
  /// bad socket path or when another live server already listens there
  /// (a STALE socket file from a dead server is silently replaced).
  void start();

  /// Signal-safe stop trigger: atomic store + self-pipe write. Safe to
  /// call from any thread or signal handler, any number of times.
  void request_stop() noexcept;

  /// Block until request_stop(), then drain: finish admitted requests,
  /// spill the shard store, write metrics/trace artifacts, remove the
  /// socket file.
  void wait();

  /// request_stop() + wait().
  void stop();

  [[nodiscard]] const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }
  /// Responses (ok or error) since start(). A request is counted before
  /// its response is written, so a failed write still counts.
  [[nodiscard]] std::size_t requests_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  struct Outcome {
    bool ok = false;
    std::string body;  // response envelope JSON
  };

  /// One admitted request, keyed (priority, arrival seq) in the queue.
  struct Pending;

  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void connection_loop(Connection* conn);
  void worker_loop();
  [[nodiscard]] Outcome execute(Pending& pending);
  void reap_connections(bool all);
  void drain();

  ServeOptions options_;
  std::vector<std::pair<std::string, std::string>> server_overrides_;

  std::unique_ptr<runtime::Executor> executor_;
  std::unique_ptr<scenario::ShardStore> store_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool drained_ = false;

  std::thread accept_thread_;
  std::mutex conns_mutex_;
  std::list<Connection> conns_;  // list: nodes never move

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::map<std::pair<std::size_t, std::uint64_t>, std::unique_ptr<Pending>>
      queue_;
  std::uint64_t next_seq_ = 0;
  bool draining_ = false;
  std::vector<std::thread> workers_;

  std::atomic<std::size_t> served_{0};
};

}  // namespace pg::serve
