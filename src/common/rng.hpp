#pragma once

/// \file rng.hpp
/// Deterministic pseudo-random number generation for simulations.
///
/// All stochastic PRAN components draw from `pran::Rng`, a xoshiro256++
/// generator. It is seedable, cheap to copy (fork() derives independent
/// streams), and satisfies the C++ UniformRandomBitGenerator concept, so it
/// also plugs into <random> distributions when needed. Simulations are fully
/// reproducible given the seed.

#include <cstdint>

namespace pran {

/// xoshiro256++ engine (Blackman & Vigna). 256-bit state, 64-bit output.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the state via splitmix64 so any 64-bit seed yields a well-mixed
  /// starting state (including seed 0).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Derives an independent generator (jump-free stream split): the child is
  /// seeded from the parent's output, advancing the parent.
  Rng fork() noexcept;

  /// Advances this generator by 2^128 draws (the canonical xoshiro256 jump
  /// polynomial): 2^128 non-overlapping subsequences for parallel use.
  void jump() noexcept;

  /// Derives the `index`-th substream of this generator without advancing
  /// it. Substreams are independent of each other and of the parent, and
  /// depend only on (parent state, index) — the foundation of
  /// thread-count-independent Monte-Carlo: give trial i stream(i) and the
  /// results are identical no matter how trials are scheduled.
  Rng stream(std::uint64_t index) const noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Marsaglia polar method.
  double normal() noexcept;

  /// Normal with the given mean / standard deviation (sigma >= 0).
  double normal(double mean, double sigma) noexcept;

  /// Exponential with the given rate (> 0); mean is 1/rate.
  double exponential(double rate) noexcept;

  /// Poisson-distributed count with the given mean (>= 0).
  /// Uses Knuth's method below mean 30 and a normal approximation above.
  std::uint32_t poisson(double mean) noexcept;

  /// Bernoulli trial with probability p clamped to [0, 1].
  bool bernoulli(double p) noexcept;

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace pran
