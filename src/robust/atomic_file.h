// Crash-safe whole-file writes: temp + fsync + rename.
//
// Every JSON/binary artifact the project emits (result out-files,
// metrics snapshots, traces, payoff-cache shards) goes through
// atomic_write_file, so a reader can NEVER observe a torn file at the
// final path: either the old content is still there, or the complete new
// content is. A writer killed mid-write leaves only a `<path>.tmp.<pid>`
// temp file -- which loaders never look at, which another process
// writing the same path never collides with (the pid is in the name),
// and which the next write of the same path removes once that pid is
// gone.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace pg::robust {

/// Write `content` to `path` atomically: create `<path>.tmp.<pid>`,
/// write, fsync, rename(2) over `path`. Throws std::runtime_error naming
/// the path on any filesystem refusal (the temp file is removed). First
/// removes every `<path>.tmp.<pid>` of a dead writer (see
/// dead_writer_target), best effort.
///
/// `site`/`arg` name the fault point evaluated between the write and the
/// fsync+rename, so injected faults land at the worst moment: `crash`
/// dies leaving only the temp (proving the no-torn-file guarantee),
/// `short-write` truncates the payload to half and then renames anyway
/// (simulating a non-atomic legacy writer or filesystem corruption, to
/// exercise loaders' torn-read handling). `arg` carries the payoff-cache
/// shard id at the cache.store site; 0 elsewhere.
void atomic_write_file(const std::string& path, std::string_view content,
                       std::string_view site = "artifact.write",
                       std::uint64_t arg = 0);

/// When the file name `name` is a `<target>.tmp.<pid>` temp file that
/// atomic_write_file left behind and no process `pid` exists any more
/// (kill(pid, 0) fails with ESRCH), returns `<target>`; otherwise an
/// empty view. A live writer's temp, which it is about to rename, and a
/// name whose pid does not parse never qualify.
[[nodiscard]] std::string_view dead_writer_target(std::string_view name);

}  // namespace pg::robust
