// Host vector-ISA detection.
//
// No kernel in the library dispatches on the tier: every linear-algebra
// loop is the one bit-identical reference path. The detected tier is a
// host fingerprint only -- `pg_run --print-spec` ends with a
// `# simd: detected=<tier>` line and every run records the
// `obs.simd.detected` gauge.
#pragma once

namespace pg::la::simd {

/// Vector ISA tiers in strictly increasing capability order.
enum class Tier { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// "scalar" / "sse2" / "avx2".
[[nodiscard]] const char* tier_name(Tier tier) noexcept;

/// Best tier the host CPU can execute (cpuid-based, cached after the
/// first call). Non-x86 builds report kScalar.
[[nodiscard]] Tier detect_tier();

}  // namespace pg::la::simd
