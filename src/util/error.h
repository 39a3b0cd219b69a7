// Precondition checking helpers shared by all poisongame libraries.
//
// Public API functions validate their arguments with PG_CHECK (throws
// std::invalid_argument) so misuse is reported eagerly. Its message is
// what a user reads -- `pg_run` prints it as `error: <message>` -- so it
// carries the message alone, never the C++ condition or the source path.
// Internal invariants use PG_ASSERT (throws std::logic_error naming the
// condition and its source line) so broken library state is never
// silently ignored, even in release builds.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace pg::util {

[[noreturn]] inline void throw_invalid_argument(const std::string& msg) {
  throw std::invalid_argument(msg);
}

[[noreturn]] inline void throw_logic_error(const std::string& expr,
                                           const std::string& file,
                                           int line,
                                           const std::string& msg) {
  std::ostringstream os;
  os << "invariant violated: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " (" << msg << ")";
  throw std::logic_error(os.str());
}

}  // namespace pg::util

#define PG_CHECK(cond, msg)                                \
  do {                                                     \
    if (!(cond)) ::pg::util::throw_invalid_argument(msg);  \
  } while (false)

#define PG_ASSERT(cond, msg)                                          \
  do {                                                                \
    if (!(cond))                                                      \
      ::pg::util::throw_logic_error(#cond, __FILE__, __LINE__, msg);  \
  } while (false)
