#include "dist/alias_sampler.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "dist/generators.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace duti {
namespace {

std::vector<double> empirical(const AliasSampler& sampler, std::size_t trials,
                              Rng& rng) {
  std::vector<double> freq(sampler.size(), 0.0);
  for (std::size_t t = 0; t < trials; ++t) {
    ++freq[sampler.sample(rng)];
  }
  for (double& f : freq) f /= static_cast<double>(trials);
  return freq;
}

TEST(AliasSampler, UniformWeights) {
  const AliasSampler s(std::vector<double>(8, 1.0));
  Rng rng(1);
  const auto freq = empirical(s, 200000, rng);
  for (double f : freq) EXPECT_NEAR(f, 0.125, 0.01);
}

TEST(AliasSampler, SkewedWeights) {
  const AliasSampler s({1.0, 2.0, 3.0, 4.0});
  Rng rng(2);
  const auto freq = empirical(s, 400000, rng);
  EXPECT_NEAR(freq[0], 0.1, 0.01);
  EXPECT_NEAR(freq[1], 0.2, 0.01);
  EXPECT_NEAR(freq[2], 0.3, 0.01);
  EXPECT_NEAR(freq[3], 0.4, 0.01);
}

TEST(AliasSampler, ZeroWeightNeverSampled) {
  const AliasSampler s({1.0, 0.0, 1.0});
  Rng rng(3);
  for (int t = 0; t < 50000; ++t) {
    ASSERT_NE(s.sample(rng), 1u);
  }
}

TEST(AliasSampler, SingleElement) {
  const AliasSampler s({5.0});
  Rng rng(4);
  for (int t = 0; t < 100; ++t) {
    ASSERT_EQ(s.sample(rng), 0u);
  }
}

TEST(AliasSampler, ExtremeSkew) {
  // One element carries nearly all the mass.
  std::vector<double> w(100, 1e-6);
  w[37] = 1.0;
  const AliasSampler s(w);
  Rng rng(5);
  int heavy = 0;
  const int trials = 100000;
  for (int t = 0; t < trials; ++t) {
    if (s.sample(rng) == 37u) ++heavy;
  }
  EXPECT_GT(static_cast<double>(heavy) / trials, 0.99);
}

TEST(AliasSampler, UnnormalizedWeightsAccepted) {
  const AliasSampler s({100.0, 300.0});
  Rng rng(6);
  const auto freq = empirical(s, 100000, rng);
  EXPECT_NEAR(freq[0], 0.25, 0.01);
  EXPECT_NEAR(freq[1], 0.75, 0.01);
}

TEST(AliasSampler, InvalidInputsThrow) {
  EXPECT_THROW(AliasSampler({}), InvalidArgument);
  EXPECT_THROW(AliasSampler({1.0, -0.5}), InvalidArgument);
  EXPECT_THROW(AliasSampler({0.0, 0.0}), InvalidArgument);
}

TEST(AliasSampler, ProbTablesWellFormed) {
  const AliasSampler s({0.1, 0.2, 0.3, 0.4});
  for (double p : s.prob_table()) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0 + 1e-12);
  }
}

TEST(AliasSampler, ChiSquareGoodnessOfFit) {
  // A formal chi-square test at a loose significance bar.
  const std::vector<double> w{0.05, 0.15, 0.3, 0.5};
  const AliasSampler s(w);
  Rng rng(7);
  const std::size_t trials = 200000;
  std::vector<std::size_t> counts(w.size(), 0);
  for (std::size_t t = 0; t < trials; ++t) ++counts[s.sample(rng)];
  double chi2 = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double expected = w[i] * static_cast<double>(trials);
    const double d = static_cast<double>(counts[i]) - expected;
    chi2 += d * d / expected;
  }
  // 3 degrees of freedom; P(chi2 > 16.27) ~ 0.001.
  EXPECT_LT(chi2, 16.27);
}

// --- Oracle: the historical constructor and draws, verbatim ---------------

/// The Vose constructor and the branchy draw as they were before the
/// partition and the draws went branch-free. The sampler must match it bit
/// for bit on every input. The tests below check
/// 2880 inputs: 1320 Paninski, 760 two-valued, 500 one- or multi-valued and
/// 300 histograms.
struct OracleAlias {
  std::vector<double> prob_;
  std::vector<std::uint64_t> alias_;

  explicit OracleAlias(const std::vector<double>& weights) {
    require(!weights.empty(), "AliasSampler: empty weight vector");
    double total = 0.0;
    for (double w : weights) {
      require(w >= 0.0, "AliasSampler: negative weight");
      total += w;
    }
    require(total > 0.0, "AliasSampler: all weights are zero");

    const std::size_t n = weights.size();
    prob_.assign(n, 0.0);
    alias_.assign(n, 0);

    std::vector<double> scaled(n);
    const double scale = static_cast<double>(n) / total;
    for (std::size_t i = 0; i < n; ++i) scaled[i] = weights[i] * scale;

    std::vector<std::uint64_t> small, large;
    small.reserve(n);
    large.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      (scaled[i] < 1.0 ? small : large).push_back(i);
    }

    while (!small.empty() && !large.empty()) {
      const std::uint64_t s = small.back();
      small.pop_back();
      const std::uint64_t l = large.back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] = (scaled[l] + scaled[s]) - 1.0;
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (std::uint64_t l : large) {
      prob_[l] = 1.0;
      alias_[l] = l;
    }
    for (std::uint64_t s : small) {
      prob_[s] = 1.0;
      alias_[s] = s;
    }
  }

  std::uint64_t sample(Rng& rng) const {
    const std::uint64_t i = rng.next_below(prob_.size());
    return rng.next_double() < prob_[i] ? i : alias_[i];
  }
};

std::vector<std::uint64_t> bits_of(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

/// Tables bit-equal, and scalar and batched draws equal with equal RNG
/// exit states. Returns a failure description, or "" when they agree.
std::string compare_with_oracle(const std::vector<double>& weights,
                                std::uint64_t seed) {
  const AliasSampler sampler(weights);
  const OracleAlias oracle(weights);
  if (bits_of(sampler.prob_table()) != bits_of(oracle.prob_)) {
    return "prob_table differs";
  }
  const std::vector<std::uint64_t> alias(sampler.alias_table().begin(),
                                         sampler.alias_table().end());
  if (alias != oracle.alias_) return "alias table differs";
  Rng a(seed);
  Rng b(seed);
  for (int t = 0; t < 64; ++t) {
    if (sampler.sample(a) != oracle.sample(b)) return "sample() differs";
  }
  std::vector<std::uint64_t> batch;
  sampler.sample_many(a, 97, batch);
  for (std::size_t t = 0; t < batch.size(); ++t) {
    if (batch[t] != oracle.sample(b)) return "sample_many() differs";
  }
  if (a.state() != b.state()) return "RNG exit states differ";
  return "";
}

void expect_oracle(const std::vector<double>& weights, std::uint64_t seed,
                   const std::string& what) {
  const std::string diff = compare_with_oracle(weights, seed);
  EXPECT_EQ(diff, "") << what << " (n=" << weights.size() << ")";
}

TEST(AliasSamplerOracle, PaninskiFamilies) {
  const std::vector<std::size_t> ns{2,    4,    6,    10,    256,  1000,
                                    1024, 4094, 4096, 16384, 16386};
  const std::vector<double> epss{0.25, 0.5, 1.0, 0.3, 0.7};
  for (const std::size_t n : ns) {
    for (const double eps : epss) {
      for (std::uint64_t seed = 0; seed < 24; ++seed) {
        Rng rng = make_rng(seed, n, 0x9A1);
        const auto dist = gen::paninski(n, eps, rng);
        expect_oracle(dist.pmf_vector(), seed,
                      "paninski eps=" + std::to_string(eps));
      }
    }
  }
}

TEST(AliasSamplerOracle, TwoValuedWeights) {
  // gen::bimodal, and two-valued weights in random arrangements: random
  // levels, exact zeros, -0.0 against +0.0, integer histogram counts, and
  // levels a few ulps apart.
  Rng rng(0xB1);
  for (std::size_t n = 2; n <= 64; n += 2) {
    for (const double delta : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      expect_oracle(gen::bimodal(n, delta).pmf_vector(), n, "bimodal");
    }
  }
  for (int c = 0; c < 600; ++c) {
    const std::size_t n = 1 + rng.next_below(c < 500 ? 64 : 3000);
    double lo = rng.next_double();
    double hi = lo + rng.next_double() * 4.0;
    switch (c % 6) {
      case 0: lo = 0.0; break;
      case 1: lo = -0.0; break;
      case 2: hi = std::nextafter(std::nextafter(lo, 2.0), 2.0); break;
      case 3: lo = std::floor(lo * 8.0); hi = lo + 1.0; break;
      default: break;
    }
    const double p_hi = rng.next_double();
    std::vector<double> w(n);
    bool positive = false;
    for (double& x : w) {
      x = rng.next_double() < p_hi ? hi : lo;
      positive = positive || x > 0.0;
    }
    if (!positive) w[rng.next_below(n)] = 1.0;
    expect_oracle(w, static_cast<std::uint64_t>(c), "two-valued");
  }
}

TEST(AliasSamplerOracle, OneAndMultiValuedWeights) {
  Rng rng(0xB2);
  for (int c = 0; c < 200; ++c) {
    const std::size_t n = 1 + rng.next_below(300);
    const double v = c % 2 == 0 ? 1.0 / static_cast<double>(n)
                                : 0.5 + rng.next_double();
    expect_oracle(std::vector<double>(n, v), static_cast<std::uint64_t>(c),
                  "one-valued");
  }
  for (int c = 0; c < 300; ++c) {
    const std::size_t n = 1 + rng.next_below(500);
    const std::size_t levels = 3 + rng.next_below(5);
    std::vector<double> level(levels);
    for (double& l : level) l = rng.next_double();
    std::vector<double> w(n);
    for (double& x : w) {
      x = c % 3 == 0 ? rng.next_double() : level[rng.next_below(levels)];
    }
    w[0] += 0.5;  // never all zero
    expect_oracle(w, static_cast<std::uint64_t>(c), "multi-valued");
  }
}

TEST(AliasSamplerOracle, HistogramCounts) {
  // HistogramSource feeds integer counts straight to the sampler.
  Rng rng(0xB3);
  for (int c = 0; c < 300; ++c) {
    const std::size_t n = 1 + rng.next_below(400);
    const std::size_t draws = 1 + rng.next_below(3 * n);
    std::vector<double> counts(n, 0.0);
    for (std::size_t d = 0; d < draws; ++d) counts[rng.next_below(n)] += 1.0;
    expect_oracle(counts, static_cast<std::uint64_t>(c), "histogram counts");
  }
}

TEST(AliasSamplerOracle, NextSignMatchesHistoricalExpression) {
  Rng a(0x51);
  Rng b(0x51);
  for (int t = 0; t < 10000; ++t) {
    ASSERT_EQ(a.next_sign(), (b() >> 63) ? 1 : -1);
  }
  EXPECT_EQ(a.state(), b.state());
}

}  // namespace
}  // namespace duti
