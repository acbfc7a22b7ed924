#include "fourier/evenly_covered.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"

namespace duti {
namespace {

TEST(EvenlyCovered, Predicate) {
  const std::vector<std::uint64_t> x{3, 5, 3, 5, 7};
  EXPECT_TRUE(is_evenly_covered(x, 0b00000));   // empty S
  EXPECT_TRUE(is_evenly_covered(x, 0b01111));   // {3,5,3,5}
  EXPECT_FALSE(is_evenly_covered(x, 0b10000));  // {7}
  EXPECT_FALSE(is_evenly_covered(x, 0b00111));  // {3,5,3}
  EXPECT_TRUE(is_evenly_covered(x, 0b00101));   // {3,3}
  EXPECT_FALSE(is_evenly_covered(x, 0b11111));  // {3,5,3,5,7}
}

TEST(EvenlyCovered, FourOfAKind) {
  const std::vector<std::uint64_t> x{2, 2, 2, 2};
  EXPECT_TRUE(is_evenly_covered(x, 0b1111));
  EXPECT_TRUE(is_evenly_covered(x, 0b0011));
  EXPECT_FALSE(is_evenly_covered(x, 0b0111));
}

TEST(CountEvenSequences, SmallClosedForms) {
  // Length 2 over alphabet N: the two entries must match -> N sequences.
  for (std::uint64_t alphabet : {1ULL, 2ULL, 4ULL, 16ULL}) {
    EXPECT_DOUBLE_EQ(count_even_sequences(alphabet, 2),
                     static_cast<double>(alphabet));
  }
  // Odd lengths: impossible.
  EXPECT_DOUBLE_EQ(count_even_sequences(8, 1), 0.0);
  EXPECT_DOUBLE_EQ(count_even_sequences(8, 3), 0.0);
  // Length 0: the empty sequence.
  EXPECT_DOUBLE_EQ(count_even_sequences(8, 0), 1.0);
  // Length 4 over alphabet N: 3N^2 - 2N (pairings minus double-counted
  // all-equal). Check against the DP.
  for (std::uint64_t alphabet : {2ULL, 3ULL, 8ULL}) {
    const double expected = 3.0 * static_cast<double>(alphabet * alphabet) -
                            2.0 * static_cast<double>(alphabet);
    EXPECT_DOUBLE_EQ(count_even_sequences(alphabet, 4), expected);
  }
}

TEST(CountEvenSequences, MatchesBruteForce) {
  // Brute-force enumeration over all sequences for tiny cases.
  for (std::uint64_t alphabet : {2ULL, 3ULL}) {
    for (unsigned m : {2u, 4u, 6u}) {
      double brute = 0.0;
      std::uint64_t total = 1;
      for (unsigned i = 0; i < m; ++i) total *= alphabet;
      std::vector<std::uint64_t> seq(m);
      for (std::uint64_t idx = 0; idx < total; ++idx) {
        std::uint64_t rest = idx;
        for (unsigned j = 0; j < m; ++j) {
          seq[j] = rest % alphabet;
          rest /= alphabet;
        }
        if (is_evenly_covered(seq, (1ULL << m) - 1)) brute += 1.0;
      }
      EXPECT_DOUBLE_EQ(count_even_sequences(alphabet, m), brute)
          << "alphabet=" << alphabet << " m=" << m;
    }
  }
}

TEST(CountEvenSequences, PinsExactValuesThrough128Bits) {
  // Length 6 closed form: a(1 + 15(a-1)^2) = 15a^3 - 30a^2 + 16a.
  for (std::uint64_t alphabet : {1ULL, 2ULL, 3ULL, 8ULL, 100ULL}) {
    const auto a = static_cast<double>(alphabet);
    EXPECT_DOUBLE_EQ(count_even_sequences(alphabet, 6),
                     15.0 * a * a * a - 30.0 * a * a + 16.0 * a);
  }
  EXPECT_DOUBLE_EQ(count_even_sequences(2, 6), 32.0);
  EXPECT_DOUBLE_EQ(count_even_sequences(3, 6), 183.0);
  // Alphabet 2: exactly 2^{m-1} sequences (each letter even). Powers of two
  // are exactly representable, so the 128-bit DP must pin them exactly —
  // including 2^125, far past the old double-accumulation regime.
  for (unsigned m : {2u, 10u, 40u, 64u, 126u}) {
    EXPECT_EQ(count_even_sequences(2, m), std::ldexp(1.0, int(m) - 1)) << m;
  }
}

TEST(CountEvenSequences, LogSpaceFallbackPastExactRange) {
  // 2^129 overflows the 128-bit accumulators: the DP must hand off to the
  // log-space path and still land within floating-point noise of 2^129.
  const double near = count_even_sequences(2, 130);
  EXPECT_NEAR(near / std::ldexp(1.0, 129), 1.0, 1e-9);
  // The log-space entry point agrees with the exact DP where both work...
  for (std::uint64_t alphabet : {2ULL, 5ULL, 64ULL}) {
    for (unsigned m : {2u, 4u, 8u, 20u}) {
      EXPECT_NEAR(std::exp(count_even_sequences_log(alphabet, m)),
                  count_even_sequences(alphabet, m),
                  1e-9 * count_even_sequences(alphabet, m))
          << "alphabet=" << alphabet << " m=" << m;
    }
  }
  // ...reports -inf for odd lengths (count zero)...
  EXPECT_EQ(count_even_sequences_log(8, 3),
            -std::numeric_limits<double>::infinity());
  // ...and handles alphabets no fixed-width integer could: for a = 2^40,
  // m = 8 the count is 105 a^4 (1 - O(1/a)), so the log sits within ~4/a
  // of log(105) + 160 log 2.
  EXPECT_NEAR(count_even_sequences_log(1ULL << 40, 8),
              std::log(105.0) + 160.0 * std::log(2.0), 1e-9);
}

TEST(EvenlyCovered, InsertionSortPathMatchesParityReference) {
  // The predicate sorts with insertion sort below 17 elements and std::sort
  // above; both paths must agree with an order-free parity-map reference at
  // every |S| straddling the cutoff.
  Rng rng(97);
  for (unsigned q : {8u, 16u, 17u, 24u, 40u}) {
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<std::uint64_t> x(q);
      for (auto& xi : x) xi = rng() % 5;  // few values -> collisions likely
      const std::uint64_t mask =
          rng() & ((q >= 64 ? ~0ULL : (1ULL << q) - 1));
      std::map<std::uint64_t, std::uint64_t> parity;
      for (unsigned j = 0; j < q; ++j) {
        if ((mask >> j) & 1ULL) ++parity[x[j]];
      }
      bool expected = true;
      for (const auto& [value, times] : parity) {
        (void)value;
        if (times % 2 != 0) expected = false;
      }
      EXPECT_EQ(is_evenly_covered(x, mask), expected)
          << "q=" << q << " mask=" << mask;
    }
  }
}

class CountXsTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(CountXsTest, MatchesBruteForceAndIsMaskInvariant) {
  const auto [ell, q] = GetParam();
  for (unsigned s_size = 0; s_size <= q; ++s_size) {
    const double via_dp = count_x_s(ell, q, s_size);
    // Prop 5.2(1): |X_S| depends only on |S| — verify across several masks.
    double first = -1.0;
    for (std::uint64_t mask = lowest_mask(s_size);
         mask != 0 && mask < (1ULL << q); mask = next_same_popcount(mask)) {
      const double brute = count_x_s_brute(ell, q, mask);
      if (first < 0) {
        first = brute;
      } else {
        ASSERT_DOUBLE_EQ(brute, first);
      }
    }
    if (s_size == 0) {
      first = count_x_s_brute(ell, q, 0);
    }
    EXPECT_DOUBLE_EQ(via_dp, first)
        << "ell=" << ell << " q=" << q << " |S|=" << s_size;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallDomains, CountXsTest,
                         ::testing::Values(std::make_tuple(1u, 3u),
                                           std::make_tuple(2u, 3u),
                                           std::make_tuple(2u, 4u),
                                           std::make_tuple(3u, 4u)));

TEST(Prop52, BoundDominatesExactCount) {
  for (unsigned ell : {1u, 2u, 3u}) {
    for (unsigned q : {2u, 4u, 6u}) {
      for (unsigned s_size = 0; s_size <= q; s_size += 2) {
        EXPECT_LE(count_x_s(ell, q, s_size),
                  prop52_bound(ell, q, s_size) * (1.0 + 1e-12))
            << "ell=" << ell << " q=" << q << " |S|=" << s_size;
      }
    }
  }
}

TEST(Prop52, OddSizeIsZero) {
  EXPECT_DOUBLE_EQ(prop52_bound(3, 5, 3), 0.0);
  EXPECT_DOUBLE_EQ(count_x_s(3, 5, 3), 0.0);
}

TEST(Gosper, EnumeratesExactlyTheRightMasks) {
  const unsigned q = 6, bits = 3;
  std::uint64_t count = 0;
  for (std::uint64_t m = lowest_mask(bits); m != 0 && m < (1ULL << q);
       m = next_same_popcount(m)) {
    ASSERT_EQ(static_cast<unsigned>(std::popcount(m)), bits);
    ++count;
  }
  EXPECT_EQ(count, binomial(6, 3));
}

TEST(ArStatistic, ByHand) {
  // x = (a, a, b, b): S of size 2 evenly covered: {0,1} and {2,3} -> a_1=2.
  const std::vector<std::uint64_t> x{7, 7, 9, 9};
  EXPECT_EQ(a_r(x, 1), 2u);
  // size-4 sets: the whole thing is evenly covered -> a_2 = 1.
  EXPECT_EQ(a_r(x, 2), 1u);
  EXPECT_EQ(a_r(x, 3), 0u);  // 2r > q
  EXPECT_EQ(a_r(x, 0), 1u);  // empty set only
}

TEST(ArStatistic, AllDistinctGivesZero) {
  const std::vector<std::uint64_t> x{1, 2, 3, 4, 5};
  for (unsigned r = 1; r <= 2; ++r) {
    EXPECT_EQ(a_r(x, r), 0u);
  }
}

TEST(ArStatistic, AllEqual) {
  const std::vector<std::uint64_t> x{4, 4, 4, 4};
  EXPECT_EQ(a_r(x, 1), binomial(4, 2));
  EXPECT_EQ(a_r(x, 2), 1u);
}

TEST(ArMoments, FirstMomentMatchesCombinatorialIdentity) {
  // E_x[a_r(x)] = C(q, 2r) |X_{2r}| / (n/2)^q  (the identity used in
  // Section 5.1's moment estimation).
  for (unsigned ell : {1u, 2u}) {
    for (unsigned q : {2u, 4u}) {
      for (unsigned r = 1; 2 * r <= q; ++r) {
        const double lhs = a_r_moment_exact(ell, q, r, 1);
        const double side = std::ldexp(1.0, static_cast<int>(ell));
        const double rhs = static_cast<double>(binomial(static_cast<int>(q),
                                                        static_cast<int>(2 * r))) *
                           count_even_sequences(1ULL << ell, 2 * r) /
                           std::pow(side, 2.0 * r);
        EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(1.0, rhs))
            << "ell=" << ell << " q=" << q << " r=" << r;
      }
    }
  }
}

// The tuple-enumeration moment that a_r_moment_exact replaced, kept as the
// oracle: it sums a_r(x)^m in double over all (2^ell)^q tuples.
double moment_by_enumeration(unsigned ell, unsigned q, unsigned r,
                             unsigned m) {
  require(m >= 1, "a_r_moment_exact: m must be >= 1");
  const std::uint64_t side = 1ULL << ell;
  const double total_tuples = std::pow(static_cast<double>(side),
                                       static_cast<double>(q));
  if (total_tuples > static_cast<double>(1ULL << 26)) {
    throw CapacityError("a_r_moment_exact: enumeration too large");
  }
  const auto total = static_cast<std::uint64_t>(total_tuples);
  std::vector<std::uint64_t> x(q);
  double acc = 0.0;
  for (std::uint64_t idx = 0; idx < total; ++idx) {
    std::uint64_t rest = idx;
    for (unsigned j = 0; j < q; ++j) {
      x[j] = rest % side;
      rest /= side;
    }
    acc += dpow_int(static_cast<double>(a_r(x, r)), m);
  }
  return acc / total_tuples;
}

void expect_bit_equal(unsigned ell, unsigned q, unsigned r, unsigned m) {
  const double closed = a_r_moment_exact(ell, q, r, m);
  const double oracle = moment_by_enumeration(ell, q, r, m);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(closed),
            std::bit_cast<std::uint64_t>(oracle))
      << "ell=" << ell << " q=" << q << " r=" << r << " m=" << m
      << ": closed form " << closed << " vs enumeration " << oracle;
}

TEST(ArMoments, ClosedFormMatchesEnumeration) {
  // Every sum here stays below 2^53, so the enumerator's double
  // accumulation is exact and the partition sum must reproduce its bits,
  // including the r = 0 (moment 1) and 2r > q (moment 0) edges. The
  // enumerator is capped at 2^18 tuples per cell (l=3 stops at q=6):
  // l=3, q in {7,8} would take it about four minutes.
  for (unsigned ell = 0; ell <= 3; ++ell) {
    for (unsigned q = 1; q <= 8 && ell * q <= 18; ++q) {
      for (unsigned r = 0; r <= q / 2 + 1; ++r) {
        for (unsigned m = 1; m <= 3; ++m) expect_bit_equal(ell, q, r, m);
      }
    }
  }
  // The l=2, q=10, r=1 rows that the exact_moments benchmark pins.
  for (unsigned m = 1; m <= 3; ++m) expect_bit_equal(2, 10, 1, m);
}

TEST(ArMoments, OverflowFallsBackToDouble) {
  // At l=1, q=12, r=3 the all-equal tuples have a_3 = C(12,6) = 924, and
  // 924^14 > 2^128: the 128-bit sum overflows and the partition terms are
  // summed in double instead, agreeing with the enumerator to rounding.
  const double closed = a_r_moment_exact(1, 12, 3, 14);
  const double oracle = moment_by_enumeration(1, 12, 3, 14);
  EXPECT_GT(closed, std::ldexp(1.0, 128) / std::ldexp(1.0, 12));
  EXPECT_NEAR(closed / oracle, 1.0, 1e-12);
}

TEST(ArMoments, McConvergesToExact) {
  Rng rng(42);
  const unsigned ell = 2, q = 4, r = 1, m = 2;
  const double exact = a_r_moment_exact(ell, q, r, m);
  const double mc = a_r_moment_mc(ell, q, r, m, 200000, rng);
  EXPECT_NEAR(mc, exact, 0.05 * std::max(1.0, exact));
}

class Lemma55Test : public ::testing::TestWithParam<
                        std::tuple<unsigned, unsigned, unsigned, unsigned>> {};

TEST_P(Lemma55Test, BoundDominatesExactMoment) {
  const auto [ell, q, r, m] = GetParam();
  if (2 * r > q) GTEST_SKIP();
  const double exact = a_r_moment_exact(ell, q, r, m);
  if (exact == 0.0) GTEST_SKIP();
  EXPECT_LE(std::log(exact), lemma55_log_bound(ell, q, r, m) + 1e-9)
      << "ell=" << ell << " q=" << q << " r=" << r << " m=" << m;
}

INSTANTIATE_TEST_SUITE_P(
    MomentSweep, Lemma55Test,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),   // ell
                       ::testing::Values(2u, 4u, 6u),   // q
                       ::testing::Values(1u, 2u),       // r
                       ::testing::Values(1u, 2u, 3u))); // m

// Cells past the sweep above, up to e7's largest exact ones: 2^16 to 2^24
// tuples each, which the partition sum handles in microseconds.
std::vector<std::tuple<unsigned, unsigned, unsigned, unsigned>>
e7_exact_cells() {
  std::vector<std::tuple<unsigned, unsigned, unsigned, unsigned>> cells;
  for (const auto& [ell, q] : {std::pair{2u, 8u}, std::pair{2u, 10u},
                               std::pair{3u, 8u}, std::pair{5u, 4u}}) {
    for (unsigned r : {1u, 2u}) {
      for (unsigned m : {1u, 2u, 3u}) cells.emplace_back(ell, q, r, m);
    }
  }
  return cells;
}

INSTANTIATE_TEST_SUITE_P(E7ExactCells, Lemma55Test,
                         ::testing::ValuesIn(e7_exact_cells()));

TEST(Lemma55, CapacityGuard) {
  EXPECT_THROW((void)a_r_moment_exact(10, 10, 1, 1), CapacityError);
  EXPECT_THROW((void)count_x_s_brute(10, 10, 1), CapacityError);
}

}  // namespace
}  // namespace duti
