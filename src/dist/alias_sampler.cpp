#include "dist/alias_sampler.hpp"

#include <limits>

#include "util/error.hpp"

namespace duti {

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  require(!weights.empty(), "AliasSampler: empty weight vector");
  if (weights.size() - 1 > std::numeric_limits<std::uint32_t>::max()) {
    throw CapacityError("AliasSampler: more than 2^32 weights");
  }
  double total = 0.0;
  for (double w : weights) {
    require(w >= 0.0, "AliasSampler: negative weight");
    total += w;
  }
  require(total > 0.0, "AliasSampler: all weights are zero");

  // Scaled probabilities: mean 1. A paired small bucket leaves both stacks
  // for good, so its scaled weight is final and is its acceptance
  // probability; prob_ holds the scaled weights throughout.
  const std::size_t n = weights.size();
  const double scale = static_cast<double>(n) / total;
  prob_.resize(n);
  alias_.resize(n);
  std::size_t small_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prob_[i] = weights[i] * scale;
    small_count += static_cast<std::size_t>(prob_[i] < 1.0);
  }

  // Partition into "small" (< 1) and "large", each in index order, without
  // a branch on the weight: on a random two-valued arrangement (Paninski's
  // family) that branch is a coin flip. Each index is written to the next
  // slot of both stacks and only one of them advances, hence the spare
  // slots. The small stack never outgrows its start: each pairing step pops
  // before it pushes.
  std::vector<std::uint32_t> small(small_count + 1);
  std::vector<std::uint32_t> large(n - small_count + 1);
  std::size_t small_top = 0;
  std::size_t large_top = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool is_small = prob_[i] < 1.0;
    small[small_top] = static_cast<std::uint32_t>(i);
    large[large_top] = static_cast<std::uint32_t>(i);
    small_top += static_cast<std::size_t>(is_small);
    large_top += static_cast<std::size_t>(!is_small);
  }

  // Vose pairing: each small bucket is topped up by one large bucket. The
  // branch below reads only weight values. On two-valued weights each stack
  // starts out holding one value, so the values it meets, and hence its
  // pattern, are those of the sorted weights whatever the arrangement, and
  // it predicts well.
  while (small_top > 0 && large_top > 0) {
    const std::uint32_t s = small[--small_top];
    const std::uint32_t l = large[large_top - 1];
    alias_[s] = l;
    prob_[l] = (prob_[l] + prob_[s]) - 1.0;
    if (prob_[l] < 1.0) {
      --large_top;
      small[small_top++] = l;
    }
  }
  // Remaining buckets are exactly 1 up to float round-off.
  for (std::size_t k = 0; k < large_top; ++k) {
    prob_[large[k]] = 1.0;
    alias_[large[k]] = large[k];
  }
  for (std::size_t k = 0; k < small_top; ++k) {
    prob_[small[k]] = 1.0;
    alias_[small[k]] = small[k];
  }
}

}  // namespace duti
