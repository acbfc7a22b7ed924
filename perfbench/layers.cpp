#include "layers.hpp"

#include <atomic>
#include <memory>
#include <numeric>

#include "fourier/evenly_covered.hpp"

namespace perfbench {

namespace {

std::array<std::atomic<std::uint64_t>, kTallies>& tallies() {
  static std::array<std::atomic<std::uint64_t>, kTallies> t{};
  return t;
}

void add(Tally t, std::uint64_t v) {
  tallies()[static_cast<std::size_t>(t)].fetch_add(v,
                                                   std::memory_order_relaxed);
}

}  // namespace

const char* tally_name(Tally t) {
  switch (t) {
    case Tally::kSweepPoints: return "stats.sweep.points";
    case Tally::kSweepTrialsConsulted: return "stats.sweep.trials_consulted";
    case Tally::kSweepTrialsComputed: return "stats.sweep.trials_computed";
    case Tally::kSweepProbesConsulted: return "stats.sweep.probes_consulted";
    case Tally::kSweepProbesComputed: return "stats.sweep.probes_computed";
    case Tally::kSearchProbesConsulted: return "stats.search.probes_consulted";
    case Tally::kSearchProbesComputed: return "stats.search.probes_computed";
    case Tally::kProbeTrials: return "stats.probe.trials";
    case Tally::kProbeAborts: return "stats.probe.aborts";
    case Tally::kReliableRetransmissions:
      return "sim.reliable.retransmissions";
    case Tally::kReliableDataSent: return "sim.reliable.data_sent";
    case Tally::kReliableExact: return "sim.reliable.exact";
    case Tally::kNetworkMessages: return "sim.network.messages_sent";
    case Tally::kNetworkBits: return "sim.network.bits_sent";
    case Tally::kMomentTuples: return "fourier.moment_exact.tuples";
    case Tally::kMomentMcTrials: return "fourier.moment_mc.trials";
    case Tally::kCount: break;
  }
  return "?";
}

Tallies take_tallies() {
  Tallies out{};
  for (std::size_t i = 0; i < kTallies; ++i) {
    out[i] = tallies()[i].exchange(0, std::memory_order_relaxed);
  }
  return out;
}

namespace layer {

duti::SweepResult sweep(const std::vector<duti::SweepPoint>& points,
                        const duti::SweepEngineConfig& cfg,
                        duti::ThreadPool& pool) {
  duti::SweepResult r;
  {
    const ScopedSpan span(Layer::kSweep, -1, /*scope=*/true);
    r = duti::run_sweep(points, cfg, pool);
  }
  add(Tally::kSweepPoints, r.points.size());
  add(Tally::kSweepTrialsConsulted, r.trials_consulted);
  add(Tally::kSweepTrialsComputed, r.trials_computed);
  add(Tally::kSweepProbesConsulted, r.probes_consulted);
  add(Tally::kSweepProbesComputed, r.probes_computed);
  return r;
}

duti::MinSearchResult search(const duti::ProbeFn& probe,
                             const duti::MinSearchConfig& cfg,
                             duti::ThreadPool& pool, std::int32_t row) {
  const duti::ProbeFn counted = [&probe](std::uint64_t value) {
    add(Tally::kSearchProbesComputed, 1);
    return probe(value);
  };
  duti::MinSearchResult r;
  {
    const ScopedSpan span(Layer::kSearch, row, /*scope=*/true);
    r = duti::find_min_param(counted, cfg, pool);
  }
  add(Tally::kSearchProbesConsulted, r.probes.size());
  return r;
}

duti::ProbeResult probe_ex(const duti::TesterRunEx& tester,
                           const duti::SourceSpec& uniform,
                           const duti::SourceSpec& far, std::size_t trials,
                           std::uint64_t seed, duti::ThreadPool& pool,
                           std::int32_t row) {
  duti::ProbeResult r;
  {
    const ScopedSpan span(Layer::kProbe, row, /*scope=*/true);
    r = duti::probe_success_ex(tester, uniform, far, trials, seed, pool);
  }
  add(Tally::kProbeTrials, r.trials);
  add(Tally::kProbeAborts, r.aborts());
  return r;
}

duti::TesterRun run(duti::TesterRun tester, std::int32_t row) {
  return [tester = std::move(tester), row](const duti::SampleSource& src,
                                           duti::Rng& rng) {
    const ScopedSpan span(Layer::kRun, row);
    return tester(src, rng);
  };
}

duti::TesterRunEx run_ex(duti::TesterRunEx tester, std::int32_t row) {
  return [tester = std::move(tester), row](const duti::SampleSource& src,
                                           duti::Rng& rng) {
    const ScopedSpan span(Layer::kRun, row);
    return tester(src, rng);
  };
}

duti::SourceSpec source(const duti::SourceSpec& spec, std::int32_t row) {
  return duti::SourceSpec(
      [factory = spec.factory(), row](duti::Rng& rng) {
        const ScopedSpan span(Layer::kSource, row);
        return factory(rng);
      },
      spec.trial_invariant());
}

duti::SweepPoint instrument(duti::SweepPoint point, std::int32_t row) {
  point.make_tester = [make = std::move(point.make_tester),
                       row](std::uint64_t value) {
    return run(construct(row, [&] { return make(value); }), row);
  };
  point.uniform = source(point.uniform, row);
  point.far = source(point.far, row);
  return point;
}

duti::ConvergecastResult convergecast(duti::Network& net,
                                      const duti::SpanningTree& tree,
                                      const std::vector<std::uint64_t>& values,
                                      std::uint64_t bits_per_value,
                                      duti::Rng& rng, std::int32_t row) {
  duti::ConvergecastResult r;
  {
    const ScopedSpan span(Layer::kConvergecast, row);
    r = duti::convergecast_sum(net, tree, values, bits_per_value, rng);
  }
  add(Tally::kNetworkMessages, r.stats.messages_sent);
  add(Tally::kNetworkBits, r.stats.bits_sent);
  return r;
}

duti::ReliableConvergecastResult reliable(
    duti::Network& net, const duti::SpanningTree& tree,
    const std::vector<std::uint64_t>& values, std::uint64_t bits_per_value,
    duti::Rng& rng, std::int32_t row) {
  duti::ReliableConvergecastResult r;
  {
    const ScopedSpan span(Layer::kReliable, row);
    r = duti::convergecast_sum_reliable(net, tree, values, bits_per_value,
                                        rng);
  }
  const std::uint64_t total =
      std::accumulate(values.begin(), values.end(), std::uint64_t{0});
  add(Tally::kReliableRetransmissions, r.transport.retransmissions);
  add(Tally::kReliableDataSent, r.transport.data_sent);
  add(Tally::kReliableExact, r.root_sum == total ? 1 : 0);
  add(Tally::kNetworkMessages, r.stats.messages_sent);
  add(Tally::kNetworkBits, r.stats.bits_sent);
  return r;
}

double count_x_s(unsigned ell, unsigned q, unsigned s_size,
                 std::int32_t row) {
  const ScopedSpan span(Layer::kCountXs, row);
  return duti::count_x_s(ell, q, s_size);
}

double moment_exact(unsigned ell, unsigned q, unsigned r, unsigned m,
                    std::int32_t row) {
  double v = 0.0;
  {
    const ScopedSpan span(Layer::kMomentExact, row);
    v = duti::a_r_moment_exact(ell, q, r, m);
  }
  add(Tally::kMomentTuples, std::uint64_t{1} << (ell * q));
  return v;
}

double moment_mc(unsigned ell, unsigned q, unsigned r, unsigned m,
                 std::size_t trials, duti::Rng& rng, std::int32_t row) {
  double v = 0.0;
  {
    const ScopedSpan span(Layer::kMomentMc, row);
    v = duti::a_r_moment_mc(ell, q, r, m, trials, rng);
  }
  add(Tally::kMomentMcTrials, trials);
  return v;
}

}  // namespace layer
}  // namespace perfbench
