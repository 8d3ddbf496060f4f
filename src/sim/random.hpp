#pragma once

// This header IS the sanctioned randomness source: every stochastic draw
// in the tree must flow through sim::Rng so a seed pins the whole run.
// Every draw is defined here, bit for bit, so a seed pins the same history
// under any compiler or standard library (docs/DETERMINISM.md).

#include <array>
#include <cmath>
#include <cstdint>

namespace sharq::sim {

/// splitmix64's increment, the 64-bit golden ratio.
inline constexpr std::uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ull;

/// splitmix64 (Steele, Lea & Flood, OOPSLA 2014): advances `x` by
/// kSplitmixGamma and returns its next mixed output.
inline std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += kSplitmixGamma);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Deterministic random source for a simulation run.
///
/// xoshiro256** (Blackman & Vigna, "Scrambled Linear Pseudorandom Number
/// Generators", ACM TOMS 2021): 32 bytes of state, seeded by splitmix64
/// expansion, with the handful of draw shapes the protocols need written
/// out below. Every stochastic decision in the simulator (link loss, timer
/// jitter, session staggering) draws from an Rng so runs are exactly
/// reproducible given a seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5ea11ab5u) {
    for (std::uint64_t& word : s_) word = splitmix64(seed);
  }

  /// Raw 64-bit draw (xoshiro256**); also derives child seeds.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the top 53 bits of one draw, times 2^-53.
  double unit() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi): lo + unit·(hi − lo).
  double uniform(double lo, double hi) {
    const double x = lo + unit() * (hi - lo);
    // Rounding can land exactly on hi (odds ~2^-53); keep the interval
    // half-open.
    return x >= hi && hi > lo ? std::nextafter(hi, lo) : x;
  }

  /// Uniform integer in [lo, hi] inclusive (lo ≤ hi), unbiased: draws
  /// below 2^64 mod span are rejected so every value has equal odds. The
  /// full int64 range takes one raw draw.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t range =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    if (range == UINT64_MAX) return static_cast<std::int64_t>(next_u64());
    const std::uint64_t span = range + 1;
    const std::uint64_t reject_below = (0 - span) % span;  // 2^64 mod span
    std::uint64_t r = next_u64();
    while (r < reject_below) r = next_u64();
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     r % span);
  }

  /// True with probability p: unit < p. p ≤ 0 and p ≥ 1 draw nothing.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return unit() < p;
  }

  /// Derive an independent child stream (e.g. one per link).
  Rng fork() { return Rng(next_u64() ^ 0x9e3779b97f4a7c15ull); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

}  // namespace sharq::sim
