// Ablation (extension beyond the paper): robustness of decision rules to
// faulty/Byzantine sensors and lossy links.
//
// The paper quantifies the SAMPLE cost of the local (AND) rule; this
// ablation quantifies its FRAGILITY, the other half of the locality
// trade-off: under the AND rule a single stuck-on-reject sensor vetoes the
// whole network forever, while the threshold referee absorbs faults up to
// its margin. A second table shows the multi-hop (convergecast) tester
// under message drops: a dropped partial sum silences its whole subtree
// (the ack-free convergecast never completes there), so the root sees too
// few rejections and detection collapses quickly — quantifying how much
// the one-round referee model's reliability assumption is worth.
#include <iostream>

#include "bench_common.hpp"
#include "dist/generators.hpp"
#include "sim/convergecast.hpp"
#include "testers/distributed.hpp"
#include "testers/tree_tester.hpp"
#include "util/confidence.hpp"

namespace {

using namespace duti;

/// Success rates with `byzantine` players replaced by always-reject votes.
std::pair<double, double> rates_with_byzantine(
    const DistributedTesterConfig& cfg, std::uint64_t referee_t,
    double local_threshold, unsigned byzantine, bool and_rule, int trials,
    std::uint64_t seed) {
  SuccessCounter uniform_ok, far_ok;
  const UniformSource uniform(cfg.n);
  const auto factory = make_collision_voters(cfg.q, local_threshold);
  auto run_once = [&](const SampleSource& source, Rng& rng) {
    std::uint64_t rejects = 0;
    std::vector<std::uint64_t> samples;
    for (unsigned j = 0; j < cfg.k; ++j) {
      if (j < byzantine) {
        ++rejects;  // stuck-on-alarm sensor
        continue;
      }
      Rng player_rng = make_rng(rng(), j);
      source.sample_many(player_rng, cfg.q, samples);
      auto player = factory(j);
      if (!player->decide(samples, player_rng).as_bit()) ++rejects;
    }
    return and_rule ? rejects == 0 : rejects < referee_t;
  };
  for (int t = 0; t < trials; ++t) {
    Rng r1 = make_rng(seed, 1, t);
    uniform_ok.record(run_once(uniform, r1));
    Rng g = make_rng(seed, 2, t);
    const DistributionSource far(gen::paninski(cfg.n, cfg.eps, g));
    Rng r2 = make_rng(seed, 3, t);
    far_ok.record(!run_once(far, r2));
  }
  return {uniform_ok.rate(), far_ok.rate()};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace duti;
  const Cli cli(argc, argv);
  if (cli.help_requested()) {
    std::cout << "ablation_byzantine --n=1024 --k=64 --eps=0.5 --q=96 "
                 "--trials=150\n";
    return 0;
  }
  const auto n = static_cast<std::uint64_t>(cli.get_int("n", 1024));
  const auto k = static_cast<unsigned>(cli.get_int("k", 64));
  const double eps = cli.get_double("eps", 0.5);
  const auto q = static_cast<unsigned>(cli.get_int("q", 96));
  const auto trials = static_cast<int>(cli.get_int("trials", 150));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  bench::banner("Ablation: fault tolerance of decision rules (extension)",
                "expected: one Byzantine sensor destroys the AND rule's "
                "uniform side; the threshold referee absorbs faults up to "
                "its margin; convergecast drops silence whole subtrees and\n"
                "collapse detection - quantifying the need for retransmission");

  const DistributedTesterConfig cfg{n, k, q, eps};
  Rng calib = make_rng(seed, 0);
  const DistributedThresholdTester threshold_recipe(cfg, calib);
  const DistributedAndTester and_recipe(cfg);

  Table table({"byzantine sensors", "AND uniform-accept", "AND far-reject",
               "threshold uniform-accept", "threshold far-reject"});
  for (unsigned byz : {0u, 1u, 2u, 4u, 8u}) {
    const auto [and_u, and_f] = rates_with_byzantine(
        cfg, 0, and_recipe.local_threshold(), byz, /*and_rule=*/true, trials,
        derive_seed(seed, byz, 1));
    const auto [thr_u, thr_f] = rates_with_byzantine(
        cfg, threshold_recipe.referee_threshold(),
        threshold_recipe.local_threshold(), byz, /*and_rule=*/false, trials,
        derive_seed(seed, byz, 2));
    table.add_row({static_cast<std::int64_t>(byz), and_u, and_f, thr_u,
                   thr_f});
  }
  table.print(std::cout, "stuck-on-alarm sensors");
  table.write_csv(bench::output_dir() + "/ablation_byzantine.csv");

  // Message drops on a multi-hop grid: convergecast loses subtree votes.
  Table drop_table({"drop prob", "uniform accept", "anomaly detect",
                    "avg votes lost"});
  for (double drop : {0.0, 0.05, 0.15, 0.3}) {
    SuccessCounter uniform_ok, far_ok;
    double votes_lost = 0.0;
    int epochs = trials / 2;
    for (int e = 0; e < epochs; ++e) {
      Network net(36);
      add_grid(net, 6, 6);
      net.set_default_fault({drop, 0.0});
      Rng c = make_rng(seed, static_cast<std::uint64_t>(drop * 100), e, 0);
      const TreeUniformityTester tester(net, 0, {n, q, eps}, c, 2000);
      const UniformSource uniform(n);
      Rng r1 = make_rng(seed, static_cast<std::uint64_t>(drop * 100), e, 1);
      const auto healthy = tester.run_epoch(uniform, r1);
      uniform_ok.record(healthy.accept);
      votes_lost += static_cast<double>(healthy.stats.messages_dropped);
      Rng g = make_rng(seed, static_cast<std::uint64_t>(drop * 100), e, 2);
      const DistributionSource far(gen::paninski(n, eps, g));
      Rng r2 = make_rng(seed, static_cast<std::uint64_t>(drop * 100), e, 3);
      far_ok.record(!tester.run_epoch(far, r2).accept);
    }
    // The rates are read before the row is built: a call that may throw
    // inside the braced row trips a false GCC 12 -Wmaybe-uninitialized on
    // the cells' unwind path at -O3.
    const double uniform_rate = uniform_ok.rate();
    const double far_rate = far_ok.rate();
    drop_table.add_row({drop, uniform_rate, far_rate, votes_lost / epochs});
  }
  drop_table.print(std::cout, "message drops on a 6x6 grid (36 sensors)");
  drop_table.write_csv(bench::output_dir() + "/ablation_drops.csv");
  return 0;
}
