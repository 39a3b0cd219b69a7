#include "obs/trace.h"

#include <chrono>
#include <ostream>

#include "util/strings.h"

namespace pg::obs {

#ifndef PG_OBS_DISABLED

Tracer& Tracer::instance() {
  static Tracer* t = new Tracer();  // leaked: outlive every traced thread
  return *t;
}

std::uint64_t Tracer::now_ns() const noexcept {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now().time_since_epoch());
  return static_cast<std::uint64_t>(ns.count());
}

Tracer::ThreadBuf& Tracer::local_buf() {
  // The shared_ptr keeps the buffer alive in buffers_ after the owning
  // thread exits, so pool workers that die before write_chrome_trace()
  // still contribute their events.
  static thread_local std::shared_ptr<ThreadBuf> local;
  if (!local) {
    local = std::make_shared<ThreadBuf>();
    std::lock_guard<std::mutex> lock(registry_mu_);
    local->tid = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(local);
  }
  return *local;
}

void Tracer::start() {
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->events.clear();
    buf->dropped = 0;
    buf->span_depth.store(0, std::memory_order_relaxed);
  }
  epoch_ns_.store(now_ns(), std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_relaxed);
  active_.store(true, std::memory_order_release);
}

void Tracer::stop() { active_.store(false, std::memory_order_release); }

std::uint64_t Tracer::dropped_events() const noexcept {
  std::uint64_t total = 0;
  auto* self = const_cast<Tracer*>(this);
  std::lock_guard<std::mutex> lock(self->registry_mu_);
  for (const auto& buf : self->buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    total += buf->dropped;
  }
  return total;
}

void Tracer::write_chrome_trace(std::ostream& os) {
  stop();
  std::lock_guard<std::mutex> lock(registry_mu_);
  os << "{\"traceEvents\":[";
  bool first = true;
  std::uint64_t dropped = 0;
  for (const auto& buf : buffers_) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    dropped += buf->dropped;
    if (buf->events.empty()) continue;
    if (!first) os << ",";
    first = false;
    // Stable human-readable row label per thread.
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << buf->tid << ",\"args\":{\"name\":\"pg-thread-" << buf->tid
       << "\"}}";
    for (const Event& e : buf->events) {
      // Chrome trace timestamps are microseconds; keep sub-µs precision
      // as a fraction, which both chrome://tracing and Perfetto accept.
      const double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
      const double dur_us = static_cast<double>(e.dur_ns) / 1000.0;
      os << ",{\"name\":\"" << util::json_escape(e.name) << "\",\"cat\":\""
         << util::json_escape(e.cat) << "\",\"ph\":\"X\",\"ts\":" << ts_us
         << ",\"dur\":" << dur_us << ",\"pid\":1,\"tid\":" << buf->tid
         << ",\"args\":{\"depth\":" << e.depth << "}}";
    }
  }
  os << "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":"
     << dropped << "}}\n";
}

void Span::open(const char* name, const char* cat) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.active()) return;
  Tracer::ThreadBuf& buf = tracer.local_buf();
  buf_ = &buf;
  name_ = name;
  cat_ = cat;
  start_ns_ = tracer.now_ns();
  generation_ = tracer.generation_.load(std::memory_order_relaxed);
  buf.span_depth.fetch_add(1, std::memory_order_relaxed);
}

Span::~Span() {
  if (buf_ == nullptr) return;
  Tracer& tracer = Tracer::instance();
  const std::uint64_t end_ns = tracer.now_ns();
  Tracer::ThreadBuf& buf = *buf_;
  // Decrement even when the event itself is dropped so nesting stays
  // balanced across the cap.
  const std::uint32_t depth =
      buf.span_depth.fetch_sub(1, std::memory_order_relaxed) - 1;
  if (generation_ !=
      tracer.generation_.load(std::memory_order_relaxed)) {
    return;  // straddled a start(): timestamps belong to a dead epoch
  }
  std::lock_guard<std::mutex> lock(buf.mu);
  if (buf.events.size() >= kMaxEventsPerThread) {
    ++buf.dropped;
    return;
  }
  Tracer::Event e;
  e.name = std::move(name_);
  e.cat = cat_;
  e.ts_ns = start_ns_ - tracer.epoch_ns_.load(std::memory_order_relaxed);
  e.dur_ns = end_ns - start_ns_;
  e.depth = depth;
  buf.events.push_back(std::move(e));
}

#else  // PG_OBS_DISABLED

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

void Tracer::write_chrome_trace(std::ostream& os) {
  os << "{\"traceEvents\":[]}\n";
}

#endif  // PG_OBS_DISABLED

}  // namespace pg::obs
