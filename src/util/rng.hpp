// Deterministic, splittable random number generation.
//
// Every experiment in this library must be reproducible bit-for-bit from a
// single seed, while still giving each (player, trial, sweep-point) its own
// statistically independent stream. We use splitmix64 to derive stream seeds
// and xoshiro256++ as the bulk generator; both are public-domain algorithms
// (Blackman & Vigna) reimplemented here so the library has no dependencies.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace duti {

/// splitmix64: a tiny 64-bit generator used to seed other generators and to
/// derive per-stream seeds from (seed, stream-index) pairs. Passes BigCrush
/// when used as a generator in its own right.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit value.
  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Mix an arbitrary list of 64-bit labels into a single stream seed.
/// Used to derive independent streams: derive_seed(root, player, trial, ...).
template <typename... Labels>
std::uint64_t derive_seed(std::uint64_t root, Labels... labels) noexcept {
  SplitMix64 sm(root);
  std::uint64_t out = sm.next();
  // Fold each label through one splitmix step keyed on the running value.
  ((out = SplitMix64(out ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(labels) + 1))).next()),
   ...);
  return out;
}

/// xoshiro256++ 1.0: the library's bulk pseudo-random generator.
/// Satisfies std::uniform_random_bit_generator, so it plugs into <random>.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seed the four 64-bit words of state via splitmix64, per the authors'
  /// recommendation (avoids the all-zero state and correlated seeds).
  explicit Xoshiro256pp(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : state_) w = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
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

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    // Multiply-shift rejection sampling.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Fair coin: ±1 with equal probability (+1 iff the top bit is set),
  /// computed without a branch.
  int next_sign() noexcept {
    return 2 * static_cast<int>((*this)() >> 63) - 1;
  }

  /// Bernoulli(p) draw.
  bool next_bernoulli(double p) noexcept { return next_double() < p; }

  /// The four state words, exposed so deterministic-RNG accounting can be
  /// checkpointed and replayed (the calibration memo stores the stream's
  /// entry state in its key and restores the exit state on a hit, so a
  /// memoized construction consumes the stream exactly like a fresh one).
  using State = std::array<std::uint64_t, 4>;
  [[nodiscard]] State state() const noexcept { return state_; }
  void set_state(const State& s) noexcept { state_ = s; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Default generator alias used throughout the library.
using Rng = Xoshiro256pp;

/// Construct the RNG for a derived stream in one call.
template <typename... Labels>
Rng make_rng(std::uint64_t root, Labels... labels) noexcept {
  return Rng(derive_seed(root, labels...));
}

}  // namespace duti
