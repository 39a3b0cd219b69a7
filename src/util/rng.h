// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component in poisongame takes an explicit Rng& so that a
// whole experiment (data synthesis, attack placement, filter sampling, SGD
// shuffling) is reproducible from one 64-bit seed. The generator is
// xoshiro256++ seeded through SplitMix64, both implemented here so the
// library has no dependence on the (implementation-defined) distributions of
// <random>.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace pg::util {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
/// Also a fine standalone generator for cheap decorrelated streams.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  [[nodiscard]] std::uint64_t next() noexcept;

 private:
  std::uint64_t state_;
};

/// xoshiro256++ by Blackman & Vigna: fast, high-quality, 2^256-1 period.
class Xoshiro256pp {
 public:
  explicit Xoshiro256pp(std::uint64_t seed) noexcept;

  [[nodiscard]] std::uint64_t next() noexcept;

  /// Advance 2^128 steps; used to derive independent parallel streams.
  void long_jump() noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// High-level random source with the distributions the library needs.
///
/// All methods are deterministic functions of the seed and the call
/// sequence. Copying an Rng forks the stream (both copies then produce the
/// same sequence) -- pass by reference to share a stream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept
      : gen_(seed), seed_(seed) {}

  /// The seed this stream was created from (for experiment records).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Derive an independent child stream; deterministic in (seed, salt).
  [[nodiscard]] Rng fork(std::uint64_t salt) const noexcept;

  /// Uniform on [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform on [lo, hi). Requires lo < hi.
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer on [0, n). Requires n > 0. Unbiased (rejection).
  [[nodiscard]] std::size_t uniform_index(std::size_t n);

  /// Uniform integer on [lo, hi] inclusive. Requires lo <= hi; any such
  /// range works, and the full long long range is one raw draw.
  [[nodiscard]] long long uniform_int(long long lo, long long hi);

  /// Standard normal via Box-Muller (cached second variate).
  [[nodiscard]] double normal() noexcept;

  /// Normal with the given mean and standard deviation (sd >= 0).
  [[nodiscard]] double normal(double mean, double sd);

  /// Exponential with the given rate (rate > 0).
  [[nodiscard]] double exponential(double rate);

  /// Log-normal: exp(Normal(mu, sigma)). Requires sigma >= 0.
  [[nodiscard]] double lognormal(double mu, double sigma);

  /// Bernoulli with success probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p);

  /// Sample an index from an (unnormalized) non-negative weight vector.
  /// Requires at least one strictly positive weight.
  [[nodiscard]] std::size_t categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[uniform_index(i)]);
    }
  }

  /// k distinct indices sampled uniformly from [0, n) (order random).
  /// Requires k <= n.
  [[nodiscard]] std::vector<std::size_t> sample_without_replacement(
      std::size_t n, std::size_t k);

 private:
  Xoshiro256pp gen_;
  std::uint64_t seed_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace pg::util
