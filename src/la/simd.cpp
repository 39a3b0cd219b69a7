#include "la/simd.h"

namespace pg::la::simd {

const char* tier_name(Tier tier) noexcept {
  switch (tier) {
    case Tier::kScalar: return "scalar";
    case Tier::kSse2: return "sse2";
    case Tier::kAvx2: return "avx2";
  }
  return "scalar";
}

Tier detect_tier() {
  static const Tier tier = [] {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
    if (__builtin_cpu_supports("sse2")) return Tier::kSse2;
#endif
    return Tier::kScalar;
  }();
  return tier;
}

}  // namespace pg::la::simd
