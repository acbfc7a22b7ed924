#include "testers/robust_rules.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "dist/generators.hpp"
#include "stats/harness.hpp"
#include "testers/calibration.hpp"
#include "testers/collision.hpp"

// --- Global allocation counter ---------------------------------------------
// Replaces the global allocation functions so the zero-alloc test can count
// every heap allocation made inside outcome(), aligned variants included.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t a =
      std::max(sizeof(void*), static_cast<std::size_t>(align));
  if (posix_memalign(&p, a, size ? size : 1) != 0) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace duti {
namespace {

// ---------------------------------------------------------------- rules --

TEST(NaiveThresholdRule, ConflatesSilenceWithAlarms) {
  const NaiveThresholdRule rule{100, 60};
  // 10 alarms + 90 bits arrived: 10 real + 10 missing = 20 < 60.
  EXPECT_EQ(rule.decide(10, 90), RefereeOutcome::kAccept);
  // Same 10 alarms, but 50 bits missing: 10 + 50 = 60 >= 60 -> rejects
  // even though the evidence is identical. This is the designed flaw.
  EXPECT_EQ(rule.decide(10, 50), RefereeOutcome::kReject);
  EXPECT_EQ(rule.decide(60, 100), RefereeOutcome::kReject);
}

TEST(QuorumThresholdRule, AbortsBelowQuorumAndRecalibratesAbove) {
  QuorumThresholdRule rule;
  rule.k = 100;
  rule.p_reject_uniform = 0.5;
  rule.quorum_fraction = 0.5;
  rule.z = 1.0;
  // 49 < quorum of 50: cannot decide, and says so explicitly.
  EXPECT_EQ(rule.decide(30, 49), RefereeOutcome::kAbortQuorum);
  // With 60 survivors the threshold tracks 60, not 100.
  const auto t60 = rule.threshold_for(60);
  EXPECT_GT(t60, 30u);   // mean 30 plus a z-margin
  EXPECT_LT(t60, 40u);   // ... but nowhere near the k=100 calibration
  EXPECT_EQ(rule.decide(static_cast<std::uint64_t>(t60) - 1, 60),
            RefereeOutcome::kAccept);
  EXPECT_EQ(rule.decide(t60, 60), RefereeOutcome::kReject);
  // Monotone in survivors.
  EXPECT_LT(t60, rule.threshold_for(100));
}

TEST(MedianOfGroupsRule, ToleratesByzantineOnes) {
  MedianOfGroupsRule rule;
  rule.k = 20;
  rule.p_reject_uniform = 0.2;
  rule.delta = 0.1;  // budget: floor(0.1 * 20) = 2 Byzantine bits
  EXPECT_EQ(rule.groups(), 7u);  // 2 * 2 + 3
  // 18 honest zeros + 2 stuck-at-one bits: the two 1s land in at most two
  // of the seven groups, so the median group is clean -> accept.
  std::vector<std::uint8_t> bits(20, 0);
  bits[3] = 1;
  bits[17] = 1;
  EXPECT_EQ(rule.decide(bits), RefereeOutcome::kAccept);
  // All-ones is a genuine rejection no matter the grouping.
  EXPECT_EQ(rule.decide(std::vector<std::uint8_t>(20, 1)),
            RefereeOutcome::kReject);
}

TEST(TrimmedMeanRule, SlicesOffAdversarialTails) {
  TrimmedMeanRule rule;
  rule.k = 20;
  rule.p_reject_uniform = 0.2;
  rule.delta = 0.1;
  // 2 Byzantine ones among 20 bits: trimming floor(0.1*20)=2 from each end
  // removes them entirely.
  EXPECT_EQ(rule.decide(2, 20), RefereeOutcome::kAccept);
  EXPECT_EQ(rule.decide(20, 20), RefereeOutcome::kReject);
}

// ------------------------------------------------------------ end-to-end --

SourceFactory uniform_factory(std::uint64_t n) {
  return [n](Rng&) { return std::make_unique<UniformSource>(n); };
}

SourceFactory far_factory(std::uint64_t n, double eps) {
  return [n, eps](Rng& rng) {
    return std::make_unique<DistributionSource>(gen::paninski(n, eps, rng));
  };
}

constexpr std::uint64_t kN = 256;
constexpr unsigned kK = 60;
constexpr double kEps = 0.5;

/// Minimal q clearing the 2/3 bar for a tester built at each probed q.
std::uint64_t min_q_for(RobustThresholdTester::Rule rule,
                        const FaultPlan& plan, std::uint64_t hi) {
  MinSearchConfig cfg;
  cfg.lo = 2;
  cfg.hi = hi;
  cfg.trials = 150;
  cfg.seed = 97;
  const auto probe = [&](std::uint64_t q) {
    Rng calib(derive_seed(11, q));
    const RobustThresholdTester tester(
        {kN, kK, static_cast<unsigned>(q), kEps}, plan, rule, calib);
    return probe_success_ex(
        [&tester](const SampleSource& s, Rng& r) {
          return tester.outcome(s, r);
        },
        uniform_factory(kN), far_factory(kN, kEps), cfg.trials, cfg.seed);
  };
  const auto result = find_min_param(probe, cfg);
  return result.found ? result.minimum : 0;  // 0 = not found below hi
}

// Acceptance criterion: at 20% crashed players the quorum rule's minimal q
// stays within 2x of the fault-free minimum, while the naive rule cannot
// clear the 2/3 bar at all (its uniform side false-alarms itself to death).
TEST(RobustThresholdTester, QuorumSurvivesCrashesThatKillNaiveRule) {
  const FaultPlan no_faults{};
  FaultPlan crash20;
  crash20.crash_fraction = 0.2;

  const std::uint64_t q_free =
      min_q_for(RobustThresholdTester::Rule::kNaive, no_faults, 1 << 10);
  ASSERT_GT(q_free, 0u);

  const std::uint64_t q_quorum =
      min_q_for(RobustThresholdTester::Rule::kQuorum, crash20, 1 << 10);
  ASSERT_GT(q_quorum, 0u);
  EXPECT_LE(q_quorum, 2 * q_free);

  // The naive rule under the same crashes: even 8x the fault-free budget
  // does not help, because its failure is not a sample-size problem.
  Rng calib(derive_seed(13, q_free));
  const RobustThresholdTester naive(
      {kN, kK, static_cast<unsigned>(8 * q_free), kEps}, crash20,
      RobustThresholdTester::Rule::kNaive, calib);
  const auto probe = probe_success_ex(
      [&naive](const SampleSource& s, Rng& r) { return naive.outcome(s, r); },
      uniform_factory(kN), far_factory(kN, kEps), 150, 97);
  EXPECT_FALSE(probe.passes());
  EXPECT_LT(probe.uniform_accept_rate, 2.0 / 3.0);  // the failing side
}

TEST(RobustThresholdTester, MedianOfGroupsSurvivesStuckAtOneByzantines) {
  FaultPlan byz10;
  byz10.byzantine_fraction = 0.1;
  byz10.byzantine_mode = ByzantineMode::kStuckAtOne;
  Rng calib(17);
  const RobustThresholdTester median({kN, kK, 48, kEps}, byz10,
                                     RobustThresholdTester::Rule::kMedianOfGroups,
                                     calib);
  const auto probe = probe_success_ex(
      [&median](const SampleSource& s, Rng& r) {
        return median.outcome(s, r);
      },
      uniform_factory(kN), far_factory(kN, kEps), 150, 101);
  EXPECT_TRUE(probe.passes()) << "uniform=" << probe.uniform_accept_rate
                              << " far=" << probe.far_reject_rate;
}

TEST(RobustThresholdTester, QuorumAbortIsAttributedNotConflated) {
  // 60% crashed: 24 survivors < the 30-player quorum, every trial aborts.
  FaultPlan crash60;
  crash60.crash_fraction = 0.6;
  Rng calib(19);
  const RobustThresholdTester quorum({kN, kK, 16, kEps}, crash60,
                                     RobustThresholdTester::Rule::kQuorum,
                                     calib);
  const std::size_t trials = 40;
  const auto probe = probe_success_ex(
      [&quorum](const SampleSource& s, Rng& r) {
        return quorum.outcome(s, r);
      },
      uniform_factory(kN), far_factory(kN, kEps), trials, 103);
  EXPECT_EQ(probe.uniform_accept_rate, 0.0);
  EXPECT_EQ(probe.far_reject_rate, 0.0);
  EXPECT_EQ(probe.uniform_aborts_quorum, trials);
  EXPECT_EQ(probe.far_aborts_quorum, trials);
  EXPECT_EQ(probe.aborts(), 2 * trials);
}

TEST(RobustThresholdTester, ZeroFaultPlanMatchesNaiveCalibration) {
  // With no faults the naive rule is exactly the paper's referee: minimal q
  // should sit near the sqrt(n/k)/eps^2 scale (small, single digits here).
  Rng calib(23);
  const RobustThresholdTester tester({kN, kK, 48, kEps}, FaultPlan{},
                                     RobustThresholdTester::Rule::kNaive,
                                     calib);
  EXPECT_GT(tester.p_reject_uniform(), 0.0);
  EXPECT_LT(tester.p_reject_uniform(), 1.0);
  EXPECT_GE(tester.naive_referee_threshold(), 1u);
  EXPECT_LE(tester.naive_referee_threshold(), kK);
  const auto probe = probe_success_ex(
      [&tester](const SampleSource& s, Rng& r) {
        return tester.outcome(s, r);
      },
      uniform_factory(kN), far_factory(kN, kEps), 150, 107);
  EXPECT_TRUE(probe.passes());
  EXPECT_EQ(probe.aborts(), 0u);
}

// ------------------------------------------------- tally-plane outcome --

/// The sort-based outcome() loop the tally plane replaced, kept verbatim as
/// the bit-identity oracle: fresh vectors every trial, collision_pairs().
RefereeOutcome outcome_by_sort(const RobustThresholdTester& tester,
                               const SampleSource& source, Rng& rng) {
  const DistributedTesterConfig& cfg_ = tester.config();
  const FaultPlan& plan_ = tester.plan();
  const double local_t_ = tester.local_threshold();
  const double p_u_ = tester.p_reject_uniform();
  const std::uint64_t naive_t_ = tester.naive_referee_threshold();
  const double effective_delta = plan_.byzantine_fraction;
  using Rule = RobustThresholdTester::Rule;

  const unsigned k = cfg_.k;
  const auto n_byz = static_cast<unsigned>(
      std::floor(plan_.byzantine_fraction * static_cast<double>(k)));
  const auto n_crash = static_cast<unsigned>(
      std::floor(plan_.crash_fraction * static_cast<double>(k)));

  std::vector<unsigned> order(k);
  for (unsigned j = 0; j < k; ++j) order[j] = j;
  for (unsigned j = 0; j < n_byz + n_crash && j + 1 < k; ++j) {
    const auto pick = j + static_cast<unsigned>(rng.next_below(k - j));
    std::swap(order[j], order[pick]);
  }
  std::vector<std::uint8_t> role(k, 0);  // 0 honest, 1 byzantine, 2 crashed
  for (unsigned j = 0; j < n_byz; ++j) role[order[j]] = 1;
  for (unsigned j = n_byz; j < n_byz + n_crash; ++j) role[order[j]] = 2;

  std::vector<std::uint8_t> bits;  // arrival order = player order
  bits.reserve(k);
  std::vector<std::uint64_t> samples;
  for (unsigned j = 0; j < k; ++j) {
    if (role[j] == 2) continue;  // crashed: nothing arrives
    Rng player_rng = make_rng(rng(), j);
    std::uint8_t bit = 0;
    const bool need_honest_vote =
        role[j] == 0 ||
        plan_.byzantine_mode == ByzantineMode::kAdversarialFlip;
    if (need_honest_vote) {
      source.sample_many(player_rng, cfg_.q, samples);
      bit = static_cast<double>(collision_pairs(samples)) > local_t_ ? 1 : 0;
    }
    if (role[j] == 1) {
      switch (plan_.byzantine_mode) {
        case ByzantineMode::kStuckAtZero: bit = 0; break;
        case ByzantineMode::kStuckAtOne: bit = 1; break;
        case ByzantineMode::kRandomBit:
          bit = static_cast<std::uint8_t>(player_rng() & 1ULL);
          break;
        case ByzantineMode::kAdversarialFlip:
          bit = bit ? 0 : 1;
          break;
      }
    }
    bits.push_back(bit);
  }

  const std::uint64_t received = bits.size();
  std::uint64_t rejects = 0;
  for (const auto b : bits) rejects += b;

  switch (tester.rule()) {
    case Rule::kNaive:
      return NaiveThresholdRule{k, naive_t_}.decide(rejects, received);
    case Rule::kQuorum:
      return QuorumThresholdRule{k, p_u_}.decide(rejects, received);
    case Rule::kMedianOfGroups:
      return MedianOfGroupsRule{k, p_u_, effective_delta}.decide(bits);
    case Rule::kTrimmed:
      return TrimmedMeanRule{k, p_u_, effective_delta}.decide(rejects,
                                                              received);
  }
  return RefereeOutcome::kAbortTimeout;  // unreachable
}

constexpr RobustThresholdTester::Rule kAllRules[] = {
    RobustThresholdTester::Rule::kNaive, RobustThresholdTester::Rule::kQuorum,
    RobustThresholdTester::Rule::kMedianOfGroups,
    RobustThresholdTester::Rule::kTrimmed};

constexpr ByzantineMode kAllModes[] = {
    ByzantineMode::kStuckAtZero, ByzantineMode::kStuckAtOne,
    ByzantineMode::kRandomBit, ByzantineMode::kAdversarialFlip};

TEST(RobustThresholdTester, TallyOutcomeIsBitIdenticalToSortOracle) {
  // Every plan: crash in {0, 0.2} crossed with no Byzantines or each mode
  // at 0.1, so crashed, Byzantine and honest players mix in one trial.
  std::vector<FaultPlan> plans;
  for (const double crash : {0.0, 0.2}) {
    FaultPlan clean;
    clean.crash_fraction = crash;
    plans.push_back(clean);
    for (const ByzantineMode mode : kAllModes) {
      FaultPlan byz = clean;
      byz.byzantine_fraction = 0.1;
      byz.byzantine_mode = mode;
      plans.push_back(byz);
    }
  }
  Rng source_rng(29);
  const UniformSource uniform(kN);
  const DistributionSource far(gen::paninski(kN, kEps, source_rng));
  const SampleSource* sources[] = {&uniform, &far};

  // k = 20 keeps 2 Byzantine and 4 crashed players per trial at a third
  // of the k = 60 cost.
  constexpr unsigned k = 20;
  std::uint64_t seed = 0;
  for (const unsigned q : {2U, 24U, 200U}) {
    for (const auto rule : kAllRules) {
      for (const FaultPlan& plan : plans) {
        Rng calib(derive_seed(31, q));
        const RobustThresholdTester tester({kN, k, q, kEps}, plan, rule,
                                           calib);
        for (const SampleSource* source : sources) {
          Rng fast(derive_seed(37, ++seed));
          Rng oracle(derive_seed(37, seed));
          for (int t = 0; t < 200; ++t) {
            const RefereeOutcome got = tester.outcome(*source, fast);
            const RefereeOutcome want = outcome_by_sort(tester, *source, oracle);
            ASSERT_EQ(got, want) << "q=" << q << " trial " << t;
            ASSERT_EQ(fast.state(), oracle.state())
                << "q=" << q << " trial " << t;
          }
        }
      }
    }
  }
}

TEST(RobustThresholdTester, OutcomeAllocatesNothingAfterWarmUp) {
  FaultPlan plan;
  plan.crash_fraction = 0.2;
  plan.byzantine_fraction = 0.1;
  plan.byzantine_mode = ByzantineMode::kRandomBit;
  Rng source_rng(41);
  const DistributionSource far(gen::paninski(kN, kEps, source_rng));
  for (const auto rule : kAllRules) {
    Rng calib(43);
    const RobustThresholdTester tester({kN, kK, 24, kEps}, plan, rule, calib);
    Rng rng(47);
    (void)tester.outcome(far, rng);  // warm-up grows the per-thread buffers
    const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
    for (int t = 0; t < 100; ++t) (void)tester.outcome(far, rng);
    const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u) << "rule " << static_cast<int>(rule);
  }
}

TEST(RobustThresholdTester, RejectsTheCountsKernel) {
  DistributedTesterConfig cfg{kN, kK, 24, kEps};
  cfg.kernel = SamplingKernel::kCounts;
  Rng calib(53);
  EXPECT_THROW(RobustThresholdTester(cfg, FaultPlan{},
                                     RobustThresholdTester::Rule::kNaive,
                                     calib),
               Error);
}

// ---------------------------------------------------- shared calibration --

TEST(RobustThresholdTester, SharesTheThresholdTestersCalibration) {
  const DistributedTesterConfig cfg{kN, kK, 24, kEps};
  // Clear before each so both constructors really compute.
  CalibMemo::global().clear();
  Rng calib_thr(59);
  const DistributedThresholdTester thr(cfg, calib_thr);
  CalibMemo::global().clear();
  Rng calib_rob(59);
  const RobustThresholdTester rob(cfg, FaultPlan{},
                                  RobustThresholdTester::Rule::kQuorum,
                                  calib_rob);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rob.p_reject_uniform()),
            std::bit_cast<std::uint64_t>(thr.p_reject_uniform()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(rob.local_threshold()),
            std::bit_cast<std::uint64_t>(thr.local_threshold()));
  EXPECT_EQ(rob.naive_referee_threshold(), thr.referee_threshold());
  EXPECT_EQ(calib_rob.state(), calib_thr.state());
}

TEST(RobustThresholdTester, SecondConstructionIsAMemoHit) {
  CalibMemo::global().clear();
  CalibMemo::global().reset_stats();
  const DistributedTesterConfig cfg{kN, kK, 24, kEps};
  Rng first(61);
  const DistributedThresholdTester thr(cfg, first);
  const CalibMemo::Stats s0 = CalibMemo::global().stats();
  EXPECT_EQ(s0.misses, 1u);

  // Another fault plan and rule at the same calibration seed: a hit.
  FaultPlan crash;
  crash.crash_fraction = 0.2;
  Rng second(61);
  const RobustThresholdTester rob(cfg, crash,
                                  RobustThresholdTester::Rule::kMedianOfGroups,
                                  second);
  const CalibMemo::Stats s1 = CalibMemo::global().stats();
  EXPECT_EQ(s1.hits, s0.hits + 1);
  EXPECT_EQ(s1.misses, s0.misses);
  EXPECT_EQ(second.state(), first.state());
  EXPECT_EQ(rob.naive_referee_threshold(), thr.referee_threshold());
}

TEST(RobustThresholdTester, ConsumesMemoEntriesUnderTheStableId) {
  // A payload stored under the literal id format persisted cache files
  // carry: thr|n=..|q=..|eps=<IEEE bits>|t=<resolved trials>|rng=<tag>.
  // eps = 0.5 is 0x3FE0000000000000; kK = 60 resolves to 4000 trials.
  CalibMemo::global().clear();
  constexpr std::uint64_t kSeed = 67;
  const std::string id =
      "thr|n=256|q=24|eps=4602678819172646912|t=4000|rng=" +
      calib_rng_tag(Rng(kSeed));
  const Rng::State exit_state{1, 2, 3, 4};
  CalibMemo::global().insert(id, {1000, 4000, 1, 2, 3, 4});

  const DistributedTesterConfig cfg{kN, kK, 24, kEps};
  Rng calib_thr(kSeed);
  const DistributedThresholdTester thr(cfg, calib_thr);
  EXPECT_EQ(thr.p_reject_uniform(), 0.25);
  EXPECT_EQ(calib_thr.state(), exit_state);

  Rng calib_rob(kSeed);
  const RobustThresholdTester rob(cfg, FaultPlan{},
                                  RobustThresholdTester::Rule::kTrimmed,
                                  calib_rob);
  EXPECT_EQ(rob.p_reject_uniform(), 0.25);
  EXPECT_EQ(calib_rob.state(), exit_state);
  CalibMemo::global().clear();
}

}  // namespace
}  // namespace duti
