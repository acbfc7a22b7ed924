// The one place where the benchmark calls into the library's layers.
//
// Every call the workloads make into a layer's public function, and every
// callback the benchmark hands to the library (tester factories, tester
// runs, source factories, search probes), goes through a wrapper here. A
// wrapper opens a span (trace.hpp) around the call and adds the counts it
// can read off the call's result to the pass tallies. An API change in a
// layer (for example a merged probe/search entry point) only needs these
// wrappers updated.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/convergecast.hpp"
#include "sim/reliable.hpp"
#include "stats/harness.hpp"
#include "stats/sweep.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

/// Counts read off layer results, summed per pass.
enum class Tally : std::uint8_t {
  kSweepPoints,
  kSweepTrialsConsulted,
  kSweepTrialsComputed,
  kSweepProbesConsulted,
  kSweepProbesComputed,
  kSearchProbesConsulted,
  kSearchProbesComputed,
  kProbeTrials,
  kProbeAborts,
  kReliableRetransmissions,
  kReliableDataSent,
  kReliableExact,
  kNetworkMessages,
  kNetworkBits,
  kMomentTuples,
  kMomentMcTrials,
  kCount
};
inline constexpr std::size_t kTallies = static_cast<std::size_t>(Tally::kCount);
using Tallies = std::array<std::uint64_t, kTallies>;

/// Metric name of a tally, e.g. "stats.sweep.trials_computed".
[[nodiscard]] const char* tally_name(Tally t);

/// Return the tallies accumulated since the last call and zero them.
[[nodiscard]] Tallies take_tallies();

namespace layer {

// --- stats -----------------------------------------------------------------

[[nodiscard]] duti::SweepResult sweep(
    const std::vector<duti::SweepPoint>& points,
    const duti::SweepEngineConfig& cfg, duti::ThreadPool& pool);

/// find_min_param with `probe` counted as the search's computed probes.
[[nodiscard]] duti::MinSearchResult search(const duti::ProbeFn& probe,
                                           const duti::MinSearchConfig& cfg,
                                           duti::ThreadPool& pool,
                                           std::int32_t row);

[[nodiscard]] duti::ProbeResult probe_ex(const duti::TesterRunEx& tester,
                                         const duti::SourceSpec& uniform,
                                         const duti::SourceSpec& far,
                                         std::size_t trials,
                                         std::uint64_t seed,
                                         duti::ThreadPool& pool,
                                         std::int32_t row);

// --- testers and dist: callbacks the library invokes -----------------------

/// Tester construction (calibration included) under a testers.construct
/// span.
template <typename Make>
auto construct(std::int32_t row, Make&& make) -> decltype(make()) {
  const ScopedSpan span(Layer::kConstruct, row);
  return std::forward<Make>(make)();
}

[[nodiscard]] duti::TesterRun run(duti::TesterRun tester, std::int32_t row);
[[nodiscard]] duti::TesterRunEx run_ex(duti::TesterRunEx tester,
                                       std::int32_t row);
[[nodiscard]] duti::SourceSpec source(const duti::SourceSpec& spec,
                                      std::int32_t row);

/// Route a declarative sweep point's tester factory, its tester runs and
/// both source factories through the wrappers above.
[[nodiscard]] duti::SweepPoint instrument(duti::SweepPoint point,
                                          std::int32_t row);

// --- sim -------------------------------------------------------------------

[[nodiscard]] duti::ConvergecastResult convergecast(
    duti::Network& net, const duti::SpanningTree& tree,
    const std::vector<std::uint64_t>& values, std::uint64_t bits_per_value,
    duti::Rng& rng, std::int32_t row);

[[nodiscard]] duti::ReliableConvergecastResult reliable(
    duti::Network& net, const duti::SpanningTree& tree,
    const std::vector<std::uint64_t>& values, std::uint64_t bits_per_value,
    duti::Rng& rng, std::int32_t row);

// --- fourier ---------------------------------------------------------------

[[nodiscard]] double count_x_s(unsigned ell, unsigned q, unsigned s_size,
                               std::int32_t row);
[[nodiscard]] double moment_exact(unsigned ell, unsigned q, unsigned r,
                                  unsigned m, std::int32_t row);
[[nodiscard]] double moment_mc(unsigned ell, unsigned q, unsigned r,
                               unsigned m, std::size_t trials, duti::Rng& rng,
                               std::int32_t row);

}  // namespace layer
}  // namespace perfbench
