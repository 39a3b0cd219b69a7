// Tiny leveled logger for experiment progress reporting.
//
// Benchmarks and long-running sweeps use this to report progress on stderr
// without polluting the stdout tables that reproduce the paper's figures.
#pragma once

#include <sstream>
#include <string>

namespace pg::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global minimum level; messages below it are dropped. Thread-unsafe by
/// design (set once at startup).
void set_log_level(LogLevel level) noexcept;
[[nodiscard]] LogLevel log_level() noexcept;

/// Emit one line to stderr as "[LEVEL] message" if level passes the filter.
/// Concurrent calls write one line at a time.
void log(LogLevel level, const std::string& message);

namespace detail {
class LineLogger {
 public:
  explicit LineLogger(LogLevel level) : level_(level) {}
  LineLogger(const LineLogger&) = delete;
  LineLogger& operator=(const LineLogger&) = delete;
  ~LineLogger() { log(level_, os_.str()); }

  template <typename T>
  LineLogger& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

[[nodiscard]] inline detail::LineLogger log_debug() {
  return detail::LineLogger(LogLevel::kDebug);
}
[[nodiscard]] inline detail::LineLogger log_info() {
  return detail::LineLogger(LogLevel::kInfo);
}
[[nodiscard]] inline detail::LineLogger log_warn() {
  return detail::LineLogger(LogLevel::kWarn);
}
[[nodiscard]] inline detail::LineLogger log_error() {
  return detail::LineLogger(LogLevel::kError);
}

}  // namespace pg::util
