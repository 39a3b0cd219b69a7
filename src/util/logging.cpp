#include "util/logging.h"

#include <iostream>
#include <mutex>

namespace pg::util {

namespace {
LogLevel g_level = LogLevel::kWarn;

[[nodiscard]] const char* level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) noexcept { g_level = level; }

LogLevel log_level() noexcept { return g_level; }

void log(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(g_level)) return;
  // std::cerr may be redirected to a buffer with no lock of its own (a
  // test's std::ostringstream), and whole lines must not interleave.
  static std::mutex mutex;
  const std::lock_guard<std::mutex> lock(mutex);
  std::cerr << "[" << level_name(level) << "] " << message << "\n";
}

}  // namespace pg::util
