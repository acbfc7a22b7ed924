// Walker/Vose alias method: O(n) preprocessing, O(1) sampling from an
// arbitrary discrete distribution. Sampling dominates the cost of every
// experiment in this library, so constant-time draws matter (see DESIGN.md
// decision D2; the ablation bench compares against inverse-CDF sampling).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace duti {

class AliasSampler {
 public:
  /// Build from unnormalized non-negative weights. Throws InvalidArgument on
  /// empty input, negative weights, or an all-zero weight vector, and
  /// CapacityError on more than 2^32 weights.
  explicit AliasSampler(const std::vector<double>& weights);

  /// Draw one index in [0, size()) with probability proportional to weight.
  [[nodiscard]] std::uint64_t sample(Rng& rng) const noexcept {
    const std::uint64_t i = rng.next_below(prob_.size());
    return select(rng.next_double() < prob_[i], i, alias_[i]);
  }

  /// Batched draws: fill `out` with `count` iid samples. Consumes the RNG
  /// exactly like `count` sample() calls (bit-identical), but keeps the
  /// table pointers hot and lets callers skip per-draw call overhead.
  void sample_many(Rng& rng, std::size_t count,
                   std::vector<std::uint64_t>& out) const {
    out.resize(count);
    const double* prob = prob_.data();
    const std::uint32_t* alias = alias_.data();
    const std::size_t n = prob_.size();
    for (auto& s : out) {
      const std::uint64_t i = rng.next_below(n);
      s = select(rng.next_double() < prob[i], i, alias[i]);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return prob_.size(); }

  /// The acceptance probability table (exposed for tests).
  [[nodiscard]] const std::vector<double>& prob_table() const noexcept {
    return prob_;
  }

  /// The alias table (exposed for tests).
  [[nodiscard]] const std::vector<std::uint32_t>& alias_table() const noexcept {
    return alias_;
  }

 private:
  /// `cond ? a : b` through a mask, without a branch. A draw keeps its
  /// bucket or takes the alias; on tables whose acceptance probabilities
  /// sit inside (0, 1), such as Paninski's, that is a fair coin per draw,
  /// and a branch on it mispredicts half the time. A deliberate trade: on
  /// a table far larger than cache whose choice is lopsided, a branch
  /// would be mostly predicted, and the mask may cost a few ns per draw
  /// there (DESIGN.md D2; `BM_AliasSampler/1048576`).
  static std::uint64_t select(bool cond, std::uint64_t a,
                              std::uint64_t b) noexcept {
    const std::uint64_t mask = 0 - static_cast<std::uint64_t>(cond);
    return b ^ ((a ^ b) & mask);
  }

  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;  // indices fit: size() <= 2^32
};

}  // namespace duti
