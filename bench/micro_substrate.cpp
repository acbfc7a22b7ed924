// Substrate microbenchmarks (google-benchmark): the hot paths every
// experiment turns on. Includes the D2 ablation (alias vs inverse-CDF
// sampling).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "dist/alias_sampler.hpp"
#include "dist/generators.hpp"
#include "dist/nu_z.hpp"
#include "fourier/wht.hpp"
#include "sim/protocol.hpp"
#include "stats/workloads.hpp"
#include "testers/collision.hpp"
#include "testers/distributed.hpp"

namespace {

using namespace duti;

void BM_AliasSampler(benchmark::State& state) {
  Rng rng(1);
  const auto dist = gen::zipf(static_cast<std::size_t>(state.range(0)), 1.0);
  const AliasSampler sampler(dist.pmf_vector());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_AliasSampler)->Arg(1 << 8)->Arg(1 << 14)->Arg(1 << 20);

/// Batched draws from a Paninski table. Half its acceptance probabilities
/// sit strictly inside (0, 1), so the keep-or-alias choice is a fair coin
/// per draw.
void BM_AliasSampleMany(benchmark::State& state) {
  Rng rng(8);
  const auto dist = gen::paninski(4096, 0.5, rng);
  const AliasSampler sampler(dist.pmf_vector());
  std::vector<std::uint64_t> buf;
  for (auto _ : state) {
    sampler.sample_many(rng, 64, buf);
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_AliasSampleMany)->Repetitions(5)->ReportAggregatesOnly(true);

/// A fresh far source as every q* probe builds one per trial: the Paninski
/// factory (signs, pmf, DiscreteDistribution) plus the first draw, which
/// builds the lazy alias table.
void BM_PaninskiFarSource(benchmark::State& state) {
  Rng rng(9);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const SourceSpec far = workloads::paninski_far_factory(n, 0.5);
  for (auto _ : state) {
    const auto source = far(rng);
    benchmark::DoNotOptimize(source->sample(rng));
  }
}
BENCHMARK(BM_PaninskiFarSource)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

/// D2 ablation: inverse-CDF sampling via binary search on the cumulative
/// weights — O(log n) per draw where alias is O(1).
void BM_InverseCdfSampler(benchmark::State& state) {
  Rng rng(1);
  const auto dist = gen::zipf(static_cast<std::size_t>(state.range(0)), 1.0);
  std::vector<double> cdf(dist.domain_size());
  double acc = 0.0;
  for (std::size_t i = 0; i < cdf.size(); ++i) {
    acc += dist.pmf(i);
    cdf[i] = acc;
  }
  for (auto _ : state) {
    const double u = rng.next_double();
    benchmark::DoNotOptimize(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  }
}
BENCHMARK(BM_InverseCdfSampler)->Arg(1 << 8)->Arg(1 << 14)->Arg(1 << 20);

void BM_NuZSample(benchmark::State& state) {
  Rng rng(2);
  const unsigned ell = static_cast<unsigned>(state.range(0));
  const NuZ nu(CubeDomain(ell), PerturbationVector::random(ell, rng), 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nu.sample(rng));
  }
}
BENCHMARK(BM_NuZSample)->Arg(8)->Arg(16)->Arg(24);

void BM_Wht(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> data(1ULL << static_cast<unsigned>(state.range(0)));
  for (auto& v : data) v = rng.next_double();
  for (auto _ : state) {
    std::vector<double> copy = data;
    wht_inplace(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Wht)->Arg(10)->Arg(16)->Arg(20);

void BM_CollisionPairs(benchmark::State& state) {
  Rng rng(4);
  std::vector<std::uint64_t> samples(
      static_cast<std::size_t>(state.range(0)));
  for (auto& s : samples) s = rng.next_below(4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(collision_pairs(samples));
  }
}
BENCHMARK(BM_CollisionPairs)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ProtocolRound(benchmark::State& state) {
  Rng rng(5);
  const auto k = static_cast<unsigned>(state.range(0));
  const std::uint64_t n = 4096;
  const unsigned q = 32;
  const auto protocol = SimultaneousProtocol(
      k, q, make_collision_voters(q, expected_collision_pairs_uniform(
                                         static_cast<double>(n), q)));
  const UniformSource source(n);
  const auto rule = DecisionRule::threshold(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.run(source, rng, rule).accept);
  }
}
BENCHMARK(BM_ProtocolRound)->Arg(8)->Arg(64)->Arg(512);

/// Batched sample_many on a DistributionSource: one virtual dispatch per
/// batch, alias tables kept hot.
void BM_SampleManyBatched(benchmark::State& state) {
  Rng rng(7);
  const DistributionSource source(
      gen::zipf(static_cast<std::size_t>(state.range(0)), 1.0));
  std::vector<std::uint64_t> buf;
  source.sample_many(rng, 64, buf);  // build the lazy alias table
  for (auto _ : state) {
    source.sample_many(rng, 64, buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_SampleManyBatched)->Arg(1 << 8)->Arg(1 << 14)->Arg(1 << 20);

/// The pre-batching baseline: one virtual sample() call per draw through the
/// SampleSource base default loop.
void BM_SampleManyPerSample(benchmark::State& state) {
  Rng rng(7);
  const DistributionSource source(
      gen::zipf(static_cast<std::size_t>(state.range(0)), 1.0));
  const SampleSource& base = source;
  std::vector<std::uint64_t> buf(64);
  (void)base.sample(rng);  // build the lazy alias table
  for (auto _ : state) {
    for (auto& s : buf) s = base.sample(rng);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_SampleManyPerSample)->Arg(1 << 8)->Arg(1 << 14)->Arg(1 << 20);

/// The probe-loop allocation hoist (ISSUE 2 satellite): the same uniform
/// factory with and without the trial-invariant promise. The delta is the
/// per-trial heap allocation + source construction cost.
void BM_ProbeSourceHoisted(benchmark::State& state) {
  const TesterRun run = [](const SampleSource& src, Rng& rng) {
    std::vector<std::uint64_t> s;
    src.sample_many(rng, 16, s);
    return collision_pairs(s) == 0;
  };
  ThreadPool pool(1);
  const SourceSpec uniform = workloads::uniform_factory(4096);
  const SourceSpec far = workloads::paninski_far_factory(4096, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        probe_success(run, uniform, far, 64, 1, pool).trials);
  }
}
BENCHMARK(BM_ProbeSourceHoisted);

void BM_ProbeSourceFresh(benchmark::State& state) {
  const TesterRun run = [](const SampleSource& src, Rng& rng) {
    std::vector<std::uint64_t> s;
    src.sample_many(rng, 16, s);
    return collision_pairs(s) == 0;
  };
  ThreadPool pool(1);
  const SourceSpec uniform(workloads::uniform_factory(4096).factory(),
                           /*trial_invariant=*/false);
  const SourceSpec far = workloads::paninski_far_factory(4096, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        probe_success(run, uniform, far, 64, 1, pool).trials);
  }
}
BENCHMARK(BM_ProbeSourceFresh);

void BM_PerturbationVector(benchmark::State& state) {
  Rng rng(6);
  const unsigned ell = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(PerturbationVector::random(ell, rng));
  }
}
BENCHMARK(BM_PerturbationVector)->Arg(10)->Arg(20)->Arg(24);

}  // namespace

BENCHMARK_MAIN();
