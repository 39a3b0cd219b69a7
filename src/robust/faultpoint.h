// Deterministic fault injection: always compiled, zero-cost when idle.
//
// A fault POINT is a named call site at a place that can really fail --
// a cache shard load or store, an artifact write, a socket read.
// Unarmed (the default), faultpoint() is one relaxed atomic load and
// nothing else: no counters, no allocation, no branch beyond the flag
// check. Armed via PG_FAULTS / `pg_run --fault`, a matching
// site executes its injected ACTION, and `obs.fault.*` counters record
// every trigger (obs.fault.triggered plus obs.fault.<site>).
//
// Spec grammar (comma-separated entries, no spaces):
//
//     PG_FAULTS = site[\[arg\]]:action[@trigger][,...]
//
//     action   crash        raise(SIGKILL) -- the process dies exactly
//                           like an OOM-killed or operator-killed worker
//              throw        throw robust::InjectedFault (a
//                           std::runtime_error naming the site)
//              delay=MS     sleep MS milliseconds, then continue
//              short-write  tell the CALLER to truncate its write; only
//                           cooperating writers (atomic_write_file)
//                           honor it, everyone else ignores the flag
//
//     trigger  (none)       every matching hit fires
//              N            only the Nth matching hit fires (1-based,
//                           counted per rule per process)
//              N+           every hit from the Nth onward fires
//              pP[/SEED]    each hit fires independently with
//                           probability P in [0,1]; deterministic in
//                           (SEED, site, hit index) via SplitMix64
//
//     arg      an optional numeric selector matched against the
//              faultpoint's `arg` (the payoff-cache shard id at the
//              cache.load/cache.store sites; 0 when the site has no
//              natural argument)
//
// Examples:
//     PG_FAULTS=cache.store:short-write
//     PG_FAULTS=artifact.out:crash
//     PG_FAULTS=serve.write:throw@1,cache.load:delay=50@p0.5/7
//
// Determinism: hit counters are per-rule and per-process, probability
// draws hash the seed, site, and hit index -- two identically-armed runs
// inject identically.
// configure() replaces the whole rule table; reset() disarms.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pg::robust {

/// What `throw` actions throw. Derived from std::runtime_error so every
/// existing catch path (CLI catch-all, serve connection loops, cache
/// degrade wrappers) handles an injected failure like a real one.
struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What an armed site tells its caller. crash/throw/delay are executed
/// INSIDE faultpoint(); short_write is returned because only the caller
/// can tear its own write.
struct FaultHit {
  bool short_write = false;
};

namespace detail {
extern std::atomic<bool> g_armed;
FaultHit faultpoint_slow(std::string_view site, std::uint64_t arg);
}  // namespace detail

/// True when any fault rule is loaded.
[[nodiscard]] inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Evaluate the named site. The unarmed path is a single relaxed load.
inline FaultHit faultpoint(std::string_view site, std::uint64_t arg = 0) {
  if (!armed()) return {};
  return detail::faultpoint_slow(site, arg);
}

/// Parse `spec` (the PG_FAULTS grammar above) and REPLACE the process
/// rule table; an empty spec disarms. Throws std::invalid_argument on a
/// malformed entry, naming it after a `PG_FAULTS:` prefix.
void configure(const std::string& spec);

/// Check `spec` against the grammar without arming anything. Throws
/// like configure(), but prefixed with `source` (e.g. `--fault`), so a
/// usage error names the input it came from.
void validate(const std::string& spec, const std::string& source);

/// configure() from $PG_FAULTS; unset/empty leaves the table untouched
/// (so a test-armed process is not disarmed by an innocent call).
void configure_from_env();

/// Disarm and clear every rule and hit counter.
void reset();

}  // namespace pg::robust
