#include "robust/atomic_file.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "robust/faultpoint.h"

namespace pg::robust {

namespace {

[[noreturn]] void fail(int fd, const std::string& tmp, const std::string& what) {
  const std::string reason = std::strerror(errno);
  if (fd >= 0) ::close(fd);
  ::unlink(tmp.c_str());
  throw std::runtime_error("atomic write: " + what + " " + tmp + ": " +
                           reason);
}

constexpr std::string_view kTempInfix = ".tmp.";

/// Removes `path`'s temp files whose writers died before their rename.
void remove_dead_writers_temps(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string name = target.filename().string();
  std::error_code ec;
  std::filesystem::directory_iterator it(
      target.has_parent_path() ? target.parent_path() : ".", ec);
  for (; !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    const std::string entry = it->path().filename().string();
    if (dead_writer_target(entry) == name) {
      std::error_code ignored;
      std::filesystem::remove(it->path(), ignored);
    }
  }
}

}  // namespace

std::string_view dead_writer_target(std::string_view name) {
  const std::size_t at = name.rfind(kTempInfix);
  if (at == std::string_view::npos || at == 0) return {};
  const char* first = name.data() + at + kTempInfix.size();
  const char* last = name.data() + name.size();
  pid_t pid = 0;
  const auto [end, ec] = std::from_chars(first, last, pid);
  if (ec != std::errc() || end != last || pid <= 0) return {};
  if (::kill(pid, 0) == 0 || errno != ESRCH) return {};
  return name.substr(0, at);
}

void atomic_write_file(const std::string& path, std::string_view content,
                       std::string_view site, std::uint64_t arg) {
  remove_dead_writers_temps(path);
  const std::string tmp =
      path + std::string(kTempInfix) + std::to_string(::getpid());
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail(-1, tmp, "cannot create");

  std::size_t written = 0;
  while (written < content.size()) {
    const ssize_t n =
        ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail(fd, tmp, "cannot write");
    }
    written += static_cast<std::size_t>(n);
  }

  // The injection point sits between write and fsync+rename -- the worst
  // moment: `crash` leaves only the temp file (the final path is intact
  // or absent, never torn), `short-write` truncates and renames anyway
  // to exercise loaders against a torn final file.
  const FaultHit hit = faultpoint(site, arg);
  if (hit.short_write && content.size() > 1) {
    if (::ftruncate(fd, static_cast<off_t>(content.size() / 2)) != 0) {
      fail(fd, tmp, "cannot truncate");
    }
  }

  if (::fsync(fd) != 0) fail(fd, tmp, "cannot fsync");
  if (::close(fd) != 0) fail(-1, tmp, "cannot close");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail(-1, tmp, "cannot rename into place:");
  }
}

}  // namespace pg::robust
