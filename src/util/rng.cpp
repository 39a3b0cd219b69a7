#include "util/rng.h"

#include <cmath>
#include <numbers>

#include "util/error.h"

namespace pg::util {

std::uint64_t SplitMix64::next() noexcept {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& s : state_) s = sm.next();
}

std::uint64_t Xoshiro256pp::next() noexcept {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

void Xoshiro256pp::long_jump() noexcept {
  static constexpr std::uint64_t kJump[] = {
      0x76E15D3EFEFDCBBFULL, 0xC5004E441C522FB3ULL, 0x77710069854EE241ULL,
      0x39109BB02ACBE635ULL};
  std::array<std::uint64_t, 4> acc{};
  for (std::uint64_t jump : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (jump & (std::uint64_t{1} << b)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= state_[i];
      }
      (void)next();
    }
  }
  state_ = acc;
}

Rng Rng::fork(std::uint64_t salt) const noexcept {
  // Mix seed and salt through SplitMix64 so sibling forks are decorrelated.
  SplitMix64 sm(seed_ ^ (salt * 0xD1342543DE82EF95ULL + 0x2545F4914F6CDD1DULL));
  return Rng(sm.next());
}

double Rng::uniform() noexcept {
  // 53 random bits -> double in [0, 1).
  return static_cast<double>(gen_.next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  PG_CHECK(lo < hi, "uniform(lo, hi) requires lo < hi");
  return lo + (hi - lo) * uniform();
}

std::size_t Rng::uniform_index(std::size_t n) {
  PG_CHECK(n > 0, "uniform_index requires n > 0");
  // Rejection sampling for exact uniformity: a draw at or above
  // limit = UINT64_MAX - UINT64_MAX % n is redrawn. The limit is never
  // below UINT64_MAX - (n - 1), so a draw x <= UINT64_MAX - n is accepted
  // without computing it, and only a larger one pays the second division.
  const std::uint64_t bound = n;
  std::uint64_t x = gen_.next();
  if (x > UINT64_MAX - bound) {
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
    while (x >= limit) x = gen_.next();
  }
  return static_cast<std::size_t>(x % bound);
}

long long Rng::uniform_int(long long lo, long long hi) {
  PG_CHECK(lo <= hi, "uniform_int requires lo <= hi");
  // Span and offset in unsigned arithmetic: hi - lo overflows long long
  // for any span above LLONG_MAX, and the full range has 2^64 values.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  if (span == UINT64_MAX) return static_cast<long long>(gen_.next());
  return static_cast<long long>(static_cast<std::uint64_t>(lo) +
                                uniform_index(span + 1));
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sd) {
  PG_CHECK(sd >= 0.0, "normal requires sd >= 0");
  return mean + sd * normal();
}

double Rng::exponential(double rate) {
  PG_CHECK(rate > 0.0, "exponential requires rate > 0");
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::lognormal(double mu, double sigma) {
  PG_CHECK(sigma >= 0.0, "lognormal requires sigma >= 0");
  return std::exp(mu + sigma * normal());
}

bool Rng::bernoulli(double p) {
  PG_CHECK(p >= 0.0 && p <= 1.0, "bernoulli requires p in [0, 1]");
  return uniform() < p;
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  PG_CHECK(!weights.empty(), "categorical requires non-empty weights");
  double total = 0.0;
  for (double w : weights) {
    PG_CHECK(w >= 0.0, "categorical requires non-negative weights");
    total += w;
  }
  PG_CHECK(total > 0.0, "categorical requires a positive total weight");
  const double u = uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return i;
  }
  return weights.size() - 1;  // guard against fp rounding at the top end
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  PG_CHECK(k <= n, "sample_without_replacement requires k <= n");
  // Partial Fisher-Yates over an index vector.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + uniform_index(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace pg::util
