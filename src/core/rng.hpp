// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components of the framework (device variability, DNA channel
// noise, synthetic workload generators, ...) draw from icsc::core::Rng so that
// every benchmark and test is bit-reproducible given a seed.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace icsc::core {

/// xoshiro256++ generator (Blackman & Vigna). Small state, excellent
/// statistical quality, and -- unlike std::mt19937 -- identical output on
/// every platform and standard library implementation.
class Rng {
public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit state words from a single seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x1C5C'F2ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n) for n > 0.
  std::uint64_t below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second deviate).
  double normal();

  /// Normal with mean mu and standard deviation sigma.
  double normal(double mu, double sigma);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Poisson-distributed count (Knuth for small lambda, normal approx above).
  int poisson(double lambda);

  /// Fisher-Yates shuffle of an index vector [0, n).
  std::vector<std::size_t> permutation(std::size_t n);

  /// Derives an independent child generator (stream splitting).
  Rng split();

  /// Complete serializable generator state: the four xoshiro words plus the
  /// Box-Muller cache. Saving and restoring it makes any sequential
  /// RNG-driven loop checkpointable mid-stream (core/checkpoint.hpp) with
  /// bit-identical continuation.
  struct State {
    std::uint64_t s[4] = {0, 0, 0, 0};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };
  State state() const;
  void restore(const State& state);

private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace icsc::core
