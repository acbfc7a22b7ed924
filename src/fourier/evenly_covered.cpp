#include "fourier/evenly_covered.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/error.hpp"
#include "util/math.hpp"

namespace duti {

bool is_evenly_covered(std::span<const std::uint64_t> x,
                       std::uint64_t s_mask) {
  // XOR-style parity tracking with a small scratch vector: collect values at
  // the masked positions, sort, and check run lengths are even. Masks are
  // tiny in the moment sweeps (|S| = 2r), where std::sort's dispatch
  // overhead dominates — insertion sort wins below ~16 elements (measured
  // in bench/micro_kernels) and produces the same ordering.
  std::uint64_t scratch[64];
  std::size_t count = 0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    if ((s_mask >> j) & 1ULL) {
      require(count < 64, "is_evenly_covered: at most 64 positions");
      scratch[count++] = x[j];
    }
  }
  if (count <= 16) {
    for (std::size_t i = 1; i < count; ++i) {
      const std::uint64_t v = scratch[i];
      std::size_t j = i;
      while (j > 0 && scratch[j - 1] > v) {
        scratch[j] = scratch[j - 1];
        --j;
      }
      scratch[j] = v;
    }
  } else {
    std::sort(scratch, scratch + count);
  }
  for (std::size_t i = 0; i < count;) {
    std::size_t run = 1;
    while (i + run < count && scratch[i + run] == scratch[i]) ++run;
    if (run % 2 != 0) return false;
    i += run;
  }
  return true;
}

namespace {
// log(exp(a) + exp(b)) without overflow; identities with -inf hold.
double log_add_exp(double a, double b) {
  if (a == -std::numeric_limits<double>::infinity()) return b;
  if (b == -std::numeric_limits<double>::infinity()) return a;
  const double hi = std::max(a, b);
  return hi + std::log1p(std::exp(std::min(a, b) - hi));
}
}  // namespace

double count_even_sequences(std::uint64_t alphabet, unsigned m) {
  require(alphabet >= 1, "count_even_sequences: alphabet must be non-empty");
  if (m % 2 != 0) return 0.0;
  // DP over sequence positions; state = number of letters seen an odd
  // number of times so far. From state j, appending one of the j "odd"
  // letters moves to j-1; appending one of the (alphabet - j) "even"
  // letters moves to j+1. Sequences are counted exactly because each
  // transition chooses a concrete letter. Counts are accumulated in 128-bit
  // integers, so the only rounding is the final conversion to double; if
  // any intermediate would overflow 128 bits, the whole DP restarts in
  // log-space (count_even_sequences_log).
  std::vector<__uint128_t> ways(m + 1, 0);
  std::vector<__uint128_t> next(m + 1, 0);
  ways[0] = 1;
  for (unsigned pos = 0; pos < m; ++pos) {
    std::fill(next.begin(), next.end(), __uint128_t{0});
    for (unsigned j = 0; j <= std::min(pos, m); ++j) {
      if (ways[j] == 0) continue;
      __uint128_t term = 0;
      if (j >= 1) {
        if (__builtin_mul_overflow(ways[j], static_cast<__uint128_t>(j),
                                   &term) ||
            __builtin_add_overflow(next[j - 1], term, &next[j - 1])) {
          return std::exp(count_even_sequences_log(alphabet, m));
        }
      }
      if (j + 1 <= m && j < alphabet) {
        if (__builtin_mul_overflow(ways[j],
                                   static_cast<__uint128_t>(alphabet - j),
                                   &term) ||
            __builtin_add_overflow(next[j + 1], term, &next[j + 1])) {
          return std::exp(count_even_sequences_log(alphabet, m));
        }
      }
    }
    ways.swap(next);
  }
  return static_cast<double>(ways[0]);
}

double count_even_sequences_log(std::uint64_t alphabet, unsigned m) {
  require(alphabet >= 1,
          "count_even_sequences_log: alphabet must be non-empty");
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  if (m % 2 != 0) return kNegInf;
  // Same DP in log-space: exact counting gives way to one log-sum-exp
  // rounding per transition, but any alphabet/length fits in a double's
  // exponent range.
  std::vector<double> ways(m + 1, kNegInf);
  std::vector<double> next(m + 1, kNegInf);
  ways[0] = 0.0;
  for (unsigned pos = 0; pos < m; ++pos) {
    std::fill(next.begin(), next.end(), kNegInf);
    for (unsigned j = 0; j <= std::min(pos, m); ++j) {
      if (ways[j] == kNegInf) continue;
      if (j >= 1) {
        next[j - 1] =
            log_add_exp(next[j - 1], ways[j] + std::log(static_cast<double>(j)));
      }
      if (j + 1 <= m && j < alphabet) {
        next[j + 1] = log_add_exp(
            next[j + 1],
            ways[j] + std::log(static_cast<double>(alphabet - j)));
      }
    }
    ways.swap(next);
  }
  return ways[0];
}

double count_x_s(unsigned ell, unsigned q, unsigned s_size) {
  require(s_size <= q, "count_x_s: |S| cannot exceed q");
  const double side = std::ldexp(1.0, static_cast<int>(ell));  // 2^ell
  const double even = count_even_sequences(1ULL << ell, s_size);
  return even * std::pow(side, static_cast<double>(q - s_size));
}

double count_x_s_brute(unsigned ell, unsigned q, std::uint64_t s_mask) {
  require(q >= 1 && q <= 63, "count_x_s_brute: q in [1,63]");
  require(s_mask < (1ULL << q), "count_x_s_brute: mask out of range");
  const std::uint64_t side = 1ULL << ell;
  double total_tuples = std::pow(static_cast<double>(side),
                                 static_cast<double>(q));
  if (total_tuples > static_cast<double>(1ULL << 26)) {
    throw CapacityError("count_x_s_brute: enumeration too large");
  }
  const auto total = static_cast<std::uint64_t>(total_tuples);
  std::vector<std::uint64_t> x(q);
  double count = 0.0;
  for (std::uint64_t idx = 0; idx < total; ++idx) {
    std::uint64_t rest = idx;
    for (unsigned j = 0; j < q; ++j) {
      x[j] = rest % side;
      rest /= side;
    }
    if (is_evenly_covered(x, s_mask)) count += 1.0;
  }
  return count;
}

double prop52_bound(unsigned ell, unsigned q, unsigned s_size) {
  require(s_size <= q, "prop52_bound: |S| cannot exceed q");
  if (s_size % 2 != 0) return 0.0;
  const double side = std::ldexp(1.0, static_cast<int>(ell));  // n/2
  const double df = std::exp(log_double_factorial(static_cast<int>(s_size) - 1));
  return df * std::pow(side, static_cast<double>(q) -
                                 static_cast<double>(s_size) / 2.0);
}

std::uint64_t lowest_mask(unsigned bits) {
  return bits == 0 ? 0 : (bits >= 64 ? ~0ULL : (1ULL << bits) - 1);
}

std::uint64_t next_same_popcount(std::uint64_t mask) {
  if (mask == 0) return 0;
  const std::uint64_t c = mask & (~mask + 1);  // lowest set bit
  const std::uint64_t r = mask + c;
  if (r == 0) return 0;  // overflowed past the top
  return (((r ^ mask) >> 2) / c) | r;
}

std::uint64_t a_r(std::span<const std::uint64_t> x, unsigned r) {
  const auto q = static_cast<unsigned>(x.size());
  require(q <= 63, "a_r: at most 63 samples");
  if (2 * r > q) return 0;
  if (r == 0) return 1;  // only S = empty set
  std::uint64_t count = 0;
  const std::uint64_t limit = 1ULL << q;
  for (std::uint64_t s = lowest_mask(2 * r); s != 0 && s < limit;
       s = next_same_popcount(s)) {
    if (is_evenly_covered(x, s)) ++count;
  }
  return count;
}

namespace {
// Sum of a_r(x)^m over every x in [side]^q, grouped by the block sizes of
// x's equal-value partition. An index set is evenly covered iff it takes an
// even number of indices from every block, so a_r(x) depends on x only
// through those sizes: with blocks lambda_1..lambda_k it is
// c_r = [t^{2r}] prod_b sum_j C(lambda_b, 2j) t^{2j}, and exactly
// #set-partitions(lambda) * side * (side-1) * ... * (side-k+1) tuples share
// it. Parts are generated in non-increasing order, so each integer
// partition of q is visited once, with at most min(q, side) parts.
// Requires 2r <= q <= 63.
class PartitionMomentSum {
 public:
  PartitionMomentSum(std::uint64_t side, unsigned q, unsigned r, unsigned m)
      : side_(side),
        r_(r),
        m_(m),
        max_parts_(static_cast<unsigned>(std::min<std::uint64_t>(q, side))) {
    even_[0][0] = 1;
    extend(q, q, 0, 0, 1);
  }

  // The sum, exact (one rounding to double) unless some term or partial
  // sum overflowed 128 bits; then the per-partition terms summed in double.
  [[nodiscard]] double sum() const {
    return overflow_ ? approx_ : static_cast<double>(exact_);
  }

 private:
  static constexpr unsigned kMaxQ = 63;

  // Adds blocks of size <= `largest` covering the `rem` indices not yet
  // placed; `run` blocks of size `largest` are already placed. `weight`
  // counts the tuples realizing the `depth` blocks placed so far: the ways
  // to choose them as unordered index sets, times the falling factorial of
  // side. The 2^26-tuple guard keeps q <= 26 once side >= 2 (side = 1
  // admits only the single block), so it stays below 26! * 2^26 < 2^128.
  void extend(unsigned rem, unsigned largest, unsigned run, unsigned depth,
              __uint128_t weight) {
    if (rem == 0) {
      add(weight, even_[depth][r_]);
      return;
    }
    const unsigned parts_left = max_parts_ - depth;
    for (unsigned s = std::min(rem, largest); s >= 1 && s * parts_left >= rem;
         --s) {
      // Among equal-size blocks only the unordered choice counts: dividing
      // the ordered product by the run length keeps it an exact integer.
      const unsigned same = s == largest ? run + 1 : 1;
      const __uint128_t next =
          weight * binomial(static_cast<int>(rem), static_cast<int>(s)) /
          same * (side_ - depth);
      const std::uint64_t* prev = even_[depth];
      std::uint64_t* cur = even_[depth + 1];
      for (unsigned j = 0; j <= r_; ++j) {
        // Each coefficient counts index sets, so it is at most C(63, 2j).
        std::uint64_t c = 0;
        for (unsigned i = 0; i <= j && 2 * i <= s; ++i) {
          c += prev[j - i] *
               binomial(static_cast<int>(s), static_cast<int>(2 * i));
        }
        cur[j] = c;
      }
      extend(rem - s, s, same, depth + 1, next);
    }
  }

  void add(__uint128_t weight, std::uint64_t c) {
    approx_ += static_cast<double>(weight) *
               dpow_int(static_cast<double>(c), m_);
    if (overflow_ || c == 0) return;
    __uint128_t term = weight;
    for (unsigned i = 0; i < m_ && !overflow_; ++i) {
      overflow_ = __builtin_mul_overflow(term, c, &term);
    }
    if (!overflow_) overflow_ = __builtin_add_overflow(exact_, term, &exact_);
  }

  std::uint64_t side_;
  unsigned r_;
  unsigned m_;
  unsigned max_parts_;
  // even_[d][j]: [t^{2j}] of the generating product over the first d blocks,
  // i.e. the number of evenly covered 2j-subsets of their indices (j <= r).
  std::uint64_t even_[kMaxQ + 1][kMaxQ / 2 + 1] = {};
  __uint128_t exact_ = 0;
  bool overflow_ = false;
  double approx_ = 0.0;
};
}  // namespace

double a_r_moment_exact(unsigned ell, unsigned q, unsigned r, unsigned m) {
  require(m >= 1, "a_r_moment_exact: m must be >= 1");
  const std::uint64_t side = 1ULL << ell;
  const double total_tuples = std::pow(static_cast<double>(side),
                                       static_cast<double>(q));
  if (total_tuples > static_cast<double>(1ULL << 26)) {
    throw CapacityError("a_r_moment_exact: more than 2^26 tuples");
  }
  require(q <= 63, "a_r_moment_exact: at most 63 samples");
  if (2 * r > q) return 0.0;
  return PartitionMomentSum(side, q, r, m).sum() / total_tuples;
}

double a_r_moment_mc(unsigned ell, unsigned q, unsigned r, unsigned m,
                     std::size_t trials, Rng& rng) {
  require(trials >= 1, "a_r_moment_mc: need at least one trial");
  const std::uint64_t side = 1ULL << ell;
  std::vector<std::uint64_t> x(q);
  double acc = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    for (auto& xi : x) xi = rng.next_below(side);
    acc += dpow_int(static_cast<double>(a_r(x, r)), m);
  }
  return acc / static_cast<double>(trials);
}

double lemma55_log_bound(unsigned ell, unsigned q, unsigned r, unsigned m) {
  require(m >= 1 && r >= 1, "lemma55_log_bound: m, r must be >= 1");
  const double half_n = std::ldexp(1.0, static_cast<int>(ell));  // n/2
  const double ratio = static_cast<double>(q) / std::sqrt(half_n);
  const double log_4m = std::log(4.0 * static_cast<double>(m));
  const double mr2 = 2.0 * static_cast<double>(m) * static_cast<double>(r);
  if (ratio >= 1.0) {
    return mr2 * log_4m + mr2 * std::log(ratio);
  }
  return mr2 * log_4m + 2.0 * static_cast<double>(r) * std::log(ratio);
}

}  // namespace duti
