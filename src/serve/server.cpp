#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/atomic_file.h"
#include "robust/faultpoint.h"
#include "runtime/payoff_disk_cache.h"
#include "scenario/engine.h"
#include "scenario/request.h"
#include "scenario/result.h"
#include "scenario/spec.h"
#include "serve/protocol.h"
#include "util/error.h"
#include "util/logging.h"

namespace pg::serve {

namespace {

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  PG_CHECK(!path.empty() && path.size() < sizeof(addr.sun_path),
           "serve: socket path must be 1-" +
               std::to_string(sizeof(addr.sun_path) - 1) + " bytes: '" +
               path + "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// Swallow-and-continue the body of a request we are rejecting, so the
/// stream stays framed for the next request on this connection.
void discard_body(int fd, std::size_t bytes) {
  char buf[4096];
  while (bytes > 0) {
    const std::size_t chunk = bytes < sizeof(buf) ? bytes : sizeof(buf);
    PG_CHECK(read_exact(fd, buf, chunk),
             "serve: connection closed mid-body");
    bytes -= chunk;
  }
}

/// True when the client side of `fd` is gone: peer fully closed (POLLHUP
/// on AF_UNIX), the descriptor errored, or it is no longer a socket. A
/// zero-timeout poll never blocks, and a drain's local shutdown(SHUT_RD)
/// on the reader side sets only RCV_SHUTDOWN -- no POLLHUP -- so queued
/// requests from still-connected clients keep their "admitted work
/// finishes" guarantee through a graceful stop.
bool peer_gone(int fd) {
  if (fd < 0) return false;
  pollfd probe{};
  probe.fd = fd;
  probe.events = 0;
  const int rc = ::poll(&probe, 1, 0);
  return rc > 0 && (probe.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
}

void send_response(int fd, const std::string& request_id, bool ok,
                   const std::string& body) {
  // An injected serve.write throw unwinds to the connection loop's
  // catch, dropping THIS connection only -- the resilience the client's
  // request_retry is tested against.
  robust::faultpoint("serve.write");
  ResponseHeader header;
  header.request_id = request_id;
  header.status = ok ? "ok" : "error";
  header.body_bytes = body.size();
  const std::string line = format_response_header(header);
  write_all(fd, line.data(), line.size());
  write_all(fd, body.data(), body.size());
}

}  // namespace

struct ScenarioServer::Pending {
  std::string request_id;
  scenario::ScenarioSpec spec;
  /// The connection's descriptor, for the dequeue-time liveness probe.
  /// Safe to poll from a worker: the connection thread blocks in
  /// future.get() until this request resolves, so the fd stays open (and
  /// unrecycled) for the Pending's whole queue lifetime.
  int client_fd = -1;
  std::uint64_t deadline_ms = 0;
  std::chrono::steady_clock::time_point enqueued;
  std::promise<Outcome> outcome;
};

ScenarioServer::ScenarioServer(ServeOptions options)
    : options_(std::move(options)) {
  PG_CHECK(options_.request_workers >= 1,
           "serve: needs at least one request worker");
  PG_CHECK(options_.queue_limit >= 1, "serve: queue limit must be >= 1");
}

ScenarioServer::~ScenarioServer() {
  if (started_ && !drained_) stop();
  if (wake_pipe_[0] != -1) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] != -1) ::close(wake_pipe_[1]);
}

void ScenarioServer::start() {
  PG_CHECK(!started_, "serve: start() called twice");

  // The server owns the process observability lifecycle: counters
  // describe this serving session, and the (optional) tracer runs for
  // the whole process -- which is why per-request trace files are
  // refused at the spec level.
  obs::reset_metrics();
  if (!options_.trace.empty()) obs::Tracer::instance().start();

  executor_ = std::make_unique<runtime::Executor>(options_.threads);
  const std::string cache_dir = !options_.cache_dir.empty()
                                    ? options_.cache_dir
                                    : runtime::DiskPayoffCache::env_dir();
  store_ = std::make_unique<scenario::ShardStore>(
      options_.use_cache, cache_dir, options_.cache_max_bytes);

  // The server's execution envelope BEATS whatever the request body
  // says, expressed as trailing RequestOptions overrides (the documented
  // precedence, not a special case): every request runs on this
  // executor and store, never traces to its own file, and never folds
  // the process-cumulative metrics registry into its result.
  server_overrides_ = {
      {"threads", std::to_string(options_.threads)},
      {"use_cache", options_.use_cache ? "true" : "false"},
      {"cache_dir", cache_dir},
      {"cache_max_bytes", std::to_string(options_.cache_max_bytes)},
      {"trace", ""},
      {"metrics", "false"},
  };

  const sockaddr_un addr = make_addr(options_.socket_path);

  // Stale-socket handling: a path left by a dead server is replaced; a
  // path a LIVE server answers on is an error; a non-socket is never
  // touched.
  struct stat st{};
  if (::lstat(options_.socket_path.c_str(), &st) == 0) {
    PG_CHECK(S_ISSOCK(st.st_mode),
             "serve: " + options_.socket_path +
                 " exists and is not a socket; refusing to replace it");
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    PG_CHECK(probe >= 0, "serve: cannot create probe socket");
    const int rc = ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr));
    ::close(probe);
    PG_CHECK(rc != 0, "serve: another server is already listening on " +
                          options_.socket_path);
    PG_CHECK(::unlink(options_.socket_path.c_str()) == 0,
             "serve: cannot remove stale socket " + options_.socket_path);
    util::log_info() << "serve: replaced stale socket "
                     << options_.socket_path;
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  PG_CHECK(listen_fd_ >= 0, "serve: cannot create listen socket");
  PG_CHECK(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0,
           "serve: cannot bind " + options_.socket_path + ": " +
               std::strerror(errno));
  PG_CHECK(::listen(listen_fd_, 64) == 0,
           "serve: cannot listen on " + options_.socket_path);
  PG_CHECK(::pipe(wake_pipe_) == 0, "serve: cannot create wake pipe");

  workers_.reserve(options_.request_workers);
  for (std::size_t i = 0; i < options_.request_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
  util::log_info() << "serve: listening on " << options_.socket_path
                   << " (threads=" << executor_->concurrency()
                   << " workers=" << options_.request_workers << ")";
}

void ScenarioServer::request_stop() noexcept {
  stopping_.store(true, std::memory_order_release);
  if (wake_pipe_[1] != -1) {
    const char byte = 1;
    // Signal-safe wake-up; the self-pipe never fills (one byte per stop).
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void ScenarioServer::wait() {
  PG_CHECK(started_, "serve: wait() before start()");
  if (accept_thread_.joinable()) accept_thread_.join();
  drain();
}

void ScenarioServer::stop() {
  request_stop();
  wait();
}

void ScenarioServer::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      util::log_error() << "serve: poll failed: " << std::strerror(errno);
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) return;
    if ((fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        util::log_error() << "serve: accept failed: " << std::strerror(errno);
        continue;
      }
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.emplace_back();
      Connection* conn = &conns_.back();
      conn->fd = fd;
      conn->thread = std::thread([this, conn] { connection_loop(conn); });
    }
    reap_connections(/*all=*/false);
  }
}

void ScenarioServer::reap_connections(bool all) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (all || it->done.load(std::memory_order_acquire)) {
      if (all && it->fd != -1) ::shutdown(it->fd, SHUT_RD);
      if (it->thread.joinable()) it->thread.join();
      if (it->fd != -1) ::close(it->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void ScenarioServer::connection_loop(Connection* conn) {
  static obs::Counter& obs_requests = obs::counter("obs.serve.requests");
  static obs::Counter& obs_errors = obs::counter("obs.serve.errors");
  static obs::Counter& obs_rejected = obs::counter("obs.serve.rejected");
  static obs::Gauge& obs_depth = obs::gauge("obs.serve.queue_depth");
  const int fd = conn->fd;
  try {
    std::string line;
    while (!stopping_.load(std::memory_order_acquire) &&
           read_line(fd, line, kMaxHeaderBytes)) {
      robust::faultpoint("serve.read");
      if (frame_kind(line) == "ping") {
        // Health checks bypass the admission queue on purpose: a probe
        // must answer even while the queue is full of long sweeps.
        static obs::Counter& obs_pings = obs::counter("obs.serve.pings");
        RequestHeader ping;
        try {
          ping = parse_ping_header(line);
        } catch (const std::exception& e) {
          obs_errors.add(1);
          send_response(fd, "", false,
                        make_error_envelope("", "bad_request", e.what()));
          break;
        }
        obs_pings.add(1);
        if (ping.major != kProtocolMajor) {
          obs_errors.add(1);
          send_response(
              fd, ping.request_id, false,
              make_error_envelope(
                  ping.request_id, "unsupported_protocol",
                  "server speaks PGSERVE/" + std::to_string(kProtocolMajor) +
                      "." + std::to_string(kProtocolMinor) +
                      ", ping is " + std::to_string(ping.major) + "." +
                      std::to_string(ping.minor)));
        } else {
          send_response(fd, ping.request_id, true,
                        make_ok_envelope(ping.request_id, "{\"pong\": true}"));
        }
        continue;
      }
      RequestHeader header;
      try {
        header = parse_request_header(line);
      } catch (const std::exception& e) {
        // Unparseable header: the body length is unknown, so the stream
        // cannot be resynced -- answer once and drop the connection.
        obs_errors.add(1);
        send_response(fd, "", false,
                      make_error_envelope("", "bad_request", e.what()));
        break;
      }
      obs_requests.add(1);

      const auto reject = [&](const std::string& code,
                              const std::string& message) {
        obs_errors.add(1);
        served_.fetch_add(1, std::memory_order_relaxed);
        send_response(fd, header.request_id, false,
                      make_error_envelope(header.request_id, code, message));
      };

      if (header.body_bytes > options_.max_request_bytes) {
        discard_body(fd, header.body_bytes);
        reject("oversized", "request body of " +
                                std::to_string(header.body_bytes) +
                                " bytes exceeds the server limit of " +
                                std::to_string(options_.max_request_bytes));
        continue;
      }
      std::string body(header.body_bytes, '\0');
      if (header.body_bytes > 0 &&
          !read_exact(fd, body.data(), body.size())) {
        break;  // closed between header and body
      }
      if (header.major != kProtocolMajor) {
        reject("unsupported_protocol",
               "server speaks PGSERVE/" + std::to_string(kProtocolMajor) +
                   "." + std::to_string(kProtocolMinor) + ", request is " +
                   std::to_string(header.major) + "." +
                   std::to_string(header.minor));
        continue;
      }

      auto pending = std::make_unique<Pending>();
      pending->request_id = header.request_id;
      pending->client_fd = fd;
      pending->deadline_ms = header.deadline_ms;
      try {
        scenario::RequestOptions request;
        request.spec_text = body;
        request.overrides = server_overrides_;
        pending->spec = request.resolve();
      } catch (const std::exception& e) {
        reject("invalid_spec", e.what());
        continue;
      }

      std::future<Outcome> future = pending->outcome.get_future();
      bool admitted = false;
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (queue_.size() < options_.queue_limit) {
          pending->enqueued = std::chrono::steady_clock::now();
          queue_.emplace(std::make_pair(header.priority, next_seq_++),
                         std::move(pending));
          obs_depth.record(queue_.size());
          admitted = true;
        }
      }
      if (!admitted) {
        obs_rejected.add(1);
        reject("queue_full", "admission queue is at its limit of " +
                                 std::to_string(options_.queue_limit) +
                                 " requests");
        continue;
      }
      queue_cv_.notify_one();

      const Outcome outcome = future.get();
      if (!outcome.ok) obs_errors.add(1);
      served_.fetch_add(1, std::memory_order_relaxed);
      send_response(fd, header.request_id, outcome.ok, outcome.body);
    }
  } catch (const std::exception& e) {
    // Dead peer or torn frame: this connection is done, the server is
    // not.
    util::log_info() << "serve: connection dropped: " << e.what();
  }
  // Signal EOF to the peer NOW: the descriptor itself is closed by
  // reap_connections(), which may not run until the accept loop's next
  // wake-up -- a client blocked on read_line() must not wait for that.
  ::shutdown(fd, SHUT_RDWR);
  // Discard whatever the peer sent that was never read: closing an
  // AF_UNIX socket with unread bytes resets the peer (ECONNRESET) instead
  // of giving it EOF. After the shutdown the peer cannot add more, so
  // this ends with what is already queued.
  char discard[512];
  while (::recv(fd, discard, sizeof(discard), MSG_DONTWAIT) > 0) {
  }
  conn->done.store(true, std::memory_order_release);
}

ScenarioServer::Outcome ScenarioServer::execute(Pending& pending) {
  static obs::Timer& obs_wall = obs::timer("obs.serve.request_wall");
  Outcome outcome;
  try {
    obs::Span span("request:" + pending.request_id, "serve");
    const obs::ScopedTimer timer(obs_wall);
    scenario::EngineContext context{executor_.get(), store_.get()};
    const scenario::ScenarioResult result =
        scenario::run_scenario(pending.spec, context);
    std::ostringstream json;
    write_json(result, json);
    outcome.ok = true;
    outcome.body = make_ok_envelope(pending.request_id, json.str());
  } catch (const std::exception& e) {
    outcome.ok = false;
    outcome.body =
        make_error_envelope(pending.request_id, "execution_failed", e.what());
  }
  return outcome;
}

void ScenarioServer::worker_loop() {
  static obs::Timer& obs_wait = obs::timer("obs.serve.queue_wait");
  for (;;) {
    std::unique_ptr<Pending> pending;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return draining_ || !queue_.empty(); });
      if (queue_.empty()) return;  // draining_ and nothing left
      auto it = queue_.begin();    // lowest (priority, arrival)
      pending = std::move(it->second);
      queue_.erase(it);
    }
    const auto waited = std::chrono::steady_clock::now() - pending->enqueued;
    obs_wait.record_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(waited)
            .count()));
    if (pending->deadline_ms != 0 &&
        std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count() >= static_cast<long long>(pending->deadline_ms)) {
      Outcome outcome;
      outcome.body = make_error_envelope(
          pending->request_id, "deadline_exceeded",
          "request waited past its deadline of " +
              std::to_string(pending->deadline_ms) + " ms; not run");
      pending->outcome.set_value(std::move(outcome));
      continue;
    }
    if (peer_gone(pending->client_fd)) {
      // The client hung up while its request was queued: computing the
      // result would only feed a dead socket. Resolve with a structured
      // error (the connection thread is still parked in future.get() and
      // discovers the hangup when its reply write fails).
      static obs::Counter& obs_cancelled = obs::counter("obs.serve.cancelled");
      obs_cancelled.add(1);
      Outcome outcome;
      outcome.body = make_error_envelope(
          pending->request_id, "client_gone",
          "client connection closed while the request was queued; not run");
      pending->outcome.set_value(std::move(outcome));
      continue;
    }
    pending->outcome.set_value(execute(*pending));
  }
}

void ScenarioServer::drain() {
  if (drained_) return;
  drained_ = true;

  // Order matters: EOF the readers first (they stop admitting), join
  // them (each is at most waiting on a future a live worker will
  // fulfill), THEN let the workers run the queue dry and exit.
  reap_connections(/*all=*/true);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    draining_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();

  if (listen_fd_ != -1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(options_.socket_path.c_str());

  const scenario::ShardStore::SpillStats spilled = store_->spill();
  util::log_info() << "serve: drained after " << requests_served()
                   << " requests; spilled " << spilled.entries_saved
                   << " cache entries";

  if (!options_.metrics_out.empty()) {
    std::ostringstream out;
    scenario::write_metrics_json("pg_serve", out);
    robust::atomic_write_file(options_.metrics_out, out.str(),
                              "artifact.metrics");
  }
  if (!options_.trace.empty()) {
    std::ostringstream out;
    obs::Tracer::instance().write_chrome_trace(out);
    robust::atomic_write_file(options_.trace, out.str(), "artifact.trace");
  }
}

}  // namespace pg::serve
