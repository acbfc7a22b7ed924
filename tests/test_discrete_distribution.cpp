#include "dist/discrete_distribution.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace duti {
namespace {

TEST(DiscreteDistribution, ValidatesPmf) {
  EXPECT_NO_THROW(DiscreteDistribution({0.5, 0.5}));
  EXPECT_THROW(DiscreteDistribution({0.5, 0.6}), InvalidArgument);
  EXPECT_THROW(DiscreteDistribution({-0.1, 1.1}), InvalidArgument);
  EXPECT_THROW((void)DiscreteDistribution(std::vector<double>{}), InvalidArgument);
}

TEST(DiscreteDistribution, SumErrorMessage) {
  try {
    const DiscreteDistribution d({0.25, 0.5});
    ADD_FAILURE() << "no throw";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(),
                 "DiscreteDistribution: pmf sums to 0.750000, not 1");
  }
}

TEST(DiscreteDistribution, ExactSumKeepsPmfBits) {
  const std::vector<double> pmf{0.375, 0.125, 0.25, 0.25};
  const DiscreteDistribution d(pmf);
  EXPECT_EQ(d.pmf_vector(), pmf);
}

TEST(DiscreteDistribution, RenormalizesWithinTolerance) {
  const DiscreteDistribution d({0.5 + 1e-10, 0.5});
  double total = 0.0;
  for (double p : d.pmf_vector()) total += p;
  EXPECT_DOUBLE_EQ(total, 1.0);
}

TEST(DiscreteDistribution, UniformFactory) {
  const auto u = DiscreteDistribution::uniform(10);
  EXPECT_EQ(u.domain_size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(u.pmf(i), 0.1);
  }
  EXPECT_NEAR(u.l1_from_uniform(), 0.0, 1e-12);
}

TEST(DiscreteDistribution, L1Distance) {
  const DiscreteDistribution p({0.5, 0.5});
  const DiscreteDistribution q({0.8, 0.2});
  EXPECT_NEAR(p.l1_distance(q), 0.6, 1e-12);
  EXPECT_NEAR(p.tv_distance(q), 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(p.l1_distance(p), 0.0);
}

TEST(DiscreteDistribution, L1IsSymmetricAndTriangle) {
  const DiscreteDistribution a({0.2, 0.3, 0.5});
  const DiscreteDistribution b({0.3, 0.3, 0.4});
  const DiscreteDistribution c({0.1, 0.6, 0.3});
  EXPECT_DOUBLE_EQ(a.l1_distance(b), b.l1_distance(a));
  EXPECT_LE(a.l1_distance(c), a.l1_distance(b) + b.l1_distance(c) + 1e-12);
}

TEST(DiscreteDistribution, L2Distance) {
  const DiscreteDistribution p({1.0, 0.0});
  const DiscreteDistribution q({0.0, 1.0});
  EXPECT_NEAR(p.l2_distance(q), std::sqrt(2.0), 1e-12);
}

TEST(DiscreteDistribution, KlDivergence) {
  const DiscreteDistribution p({0.5, 0.5});
  const DiscreteDistribution q({0.25, 0.75});
  // D(p||q) = 0.5 log2(2) + 0.5 log2(2/3) = 0.5 + 0.5*(1 - log2 3)
  const double expected = 0.5 * std::log2(0.5 / 0.25) +
                          0.5 * std::log2(0.5 / 0.75);
  EXPECT_NEAR(p.kl_divergence(q), expected, 1e-12);
  EXPECT_DOUBLE_EQ(p.kl_divergence(p), 0.0);
  EXPECT_GE(q.kl_divergence(p), 0.0);  // Gibbs
}

TEST(DiscreteDistribution, KlInfiniteOnSupportMismatch) {
  const DiscreteDistribution p({0.5, 0.5});
  const DiscreteDistribution q({1.0, 0.0});
  EXPECT_TRUE(std::isinf(p.kl_divergence(q)));
  EXPECT_FALSE(std::isinf(q.kl_divergence(p)));
}

TEST(DiscreteDistribution, Chi2Divergence) {
  const DiscreteDistribution p({0.6, 0.4});
  const DiscreteDistribution u({0.5, 0.5});
  // sum (p-q)^2/q = (0.01 + 0.01)/0.5 = 0.04
  EXPECT_NEAR(p.chi2_divergence(u), 0.04, 1e-12);
}

TEST(DiscreteDistribution, Chi2DominatesKlTimesLn2) {
  // KL (in nats) <= chi2; with our bits convention: kl*ln2 <= chi2.
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> pv(8), qv(8);
    double ps = 0, qs = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      pv[i] = 0.1 + rng.next_double();
      qv[i] = 0.1 + rng.next_double();
      ps += pv[i];
      qs += qv[i];
    }
    for (std::size_t i = 0; i < 8; ++i) {
      pv[i] /= ps;
      qv[i] /= qs;
    }
    const DiscreteDistribution p(pv), q(qv);
    EXPECT_LE(p.kl_divergence(q) * std::log(2.0),
              p.chi2_divergence(q) + 1e-9);
  }
}

TEST(DiscreteDistribution, Entropy) {
  EXPECT_NEAR(DiscreteDistribution::uniform(8).entropy(), 3.0, 1e-12);
  EXPECT_NEAR(DiscreteDistribution({1.0, 0.0}).entropy(), 0.0, 1e-12);
  EXPECT_NEAR(DiscreteDistribution({0.5, 0.5}).entropy(), 1.0, 1e-12);
}

TEST(DiscreteDistribution, SamplingMatchesPmf) {
  const DiscreteDistribution d({0.1, 0.2, 0.3, 0.4});
  Rng rng(7);
  std::vector<double> freq(4, 0.0);
  const int trials = 200000;
  for (int t = 0; t < trials; ++t) ++freq[d.sample(rng)];
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(freq[i] / trials, d.pmf(i), 0.01);
  }
}

TEST(DiscreteDistribution, SampleManyFills) {
  const auto u = DiscreteDistribution::uniform(4);
  Rng rng(8);
  std::vector<std::uint64_t> out;
  u.sample_many(rng, 1000, out);
  EXPECT_EQ(out.size(), 1000u);
  for (auto s : out) EXPECT_LT(s, 4u);
}

TEST(DiscreteDistribution, PowerIsProduct) {
  const DiscreteDistribution d({0.25, 0.75});
  const auto d2 = d.power(2);
  ASSERT_EQ(d2.domain_size(), 4u);
  // index = i0 + 2*i1
  EXPECT_NEAR(d2.pmf(0), 0.25 * 0.25, 1e-12);
  EXPECT_NEAR(d2.pmf(1), 0.75 * 0.25, 1e-12);
  EXPECT_NEAR(d2.pmf(2), 0.25 * 0.75, 1e-12);
  EXPECT_NEAR(d2.pmf(3), 0.75 * 0.75, 1e-12);
}

TEST(DiscreteDistribution, PowerCapacityGuard) {
  const auto u = DiscreteDistribution::uniform(1000);
  EXPECT_THROW(u.power(5), CapacityError);
}

TEST(DiscreteDistribution, MixInterpolates) {
  const DiscreteDistribution p({1.0, 0.0});
  const DiscreteDistribution q({0.0, 1.0});
  const auto half = p.mix(q, 0.5);
  EXPECT_NEAR(half.pmf(0), 0.5, 1e-12);
  EXPECT_NEAR(half.pmf(1), 0.5, 1e-12);
  const auto none = p.mix(q, 0.0);
  EXPECT_NEAR(none.pmf(0), 1.0, 1e-12);
  EXPECT_THROW(p.mix(q, 1.5), InvalidArgument);
}

TEST(DiscreteDistribution, DomainMismatchThrows) {
  const DiscreteDistribution p({0.5, 0.5});
  const auto q = DiscreteDistribution::uniform(3);
  EXPECT_THROW((void)p.l1_distance(q), InvalidArgument);
  EXPECT_THROW((void)p.kl_divergence(q), InvalidArgument);
  EXPECT_THROW(p.mix(q, 0.5), InvalidArgument);
}

}  // namespace
}  // namespace duti
