// The benchmark's workloads. Each one regenerates a table of the repo's
// benches from a seed, as a closed loop: one caller, and the next table
// pass starts only after the previous one finished.
//
//   qstar_sweep    e1/e2/e3/e8/e9 quick q* sweeps through run_sweep, 2 threads
//   fault_grid     e13 crash/Byzantine q* searches + transport grid, 1 thread
//   exact_moments  e7 |X_S| counts and a_r moments, 1 thread
//
// README.md in this directory gives the reasons and the layers each skips.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "verify.hpp"

namespace perfbench {

/// Process user+sys CPU seconds so far (all threads).
[[nodiscard]] double cpu_seconds();

/// One pass's verified rows, and the wall and CPU seconds of each of its
/// segments (a sweep family, a grid cell, an E7 row) in a fixed order.
struct PassResult {
  std::vector<Row> rows;
  std::vector<double> segment_wall;
  std::vector<double> segment_cpu;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Start a fresh pool, generate the inputs from the seed, and run a
  /// warm-up that fills lazy state (pool threads, thread-local tally
  /// planes, first-touch buffers). Runs before every pass; each call
  /// replaces the state of the previous one.
  virtual void setup() = 0;

  /// One pass over the workload's whole table.
  [[nodiscard]] virtual PassResult run_pass() = 0;

  /// Size of the workload's pool.
  [[nodiscard]] virtual unsigned threads() const = 0;

  /// Whether the per-pass count `name` must repeat exactly in every pass.
  /// Counts of work the sweep engine speculates on depend on which thread
  /// runs which point, so a multi-thread workload exempts them.
  [[nodiscard]] virtual bool count_is_deterministic(
      const std::string& name) const = 0;
};

/// nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace perfbench
