// Output verification and failure accounting.
//
// A row is one unit of a workload's table: a sweep point, a fault-grid or
// transport cell, or one E7 row. Each pass returns every row's outputs
// (integers, or the bit pattern of a double) plus the outcome of the
// bench's own gate for that row. A row fails when its gate fails, when an
// output differs from the first pass of the run, or, where a checked-in
// expected value applies, when it differs from that value.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Row {
  std::string key;  // e.g. "qstar/e2_and/and:k=2"
  std::vector<std::pair<std::string, std::uint64_t>> outputs;
  bool gate_ok = true;
  // Outputs do not depend on the workload seed (exact combinatorics), so
  // the expected table applies at every seed.
  bool seed_independent = false;
};

/// Expected outputs, keyed "<row key>/<output name>".
using Expected = std::map<std::string, std::uint64_t>;

/// The checked-in outputs of the default seed.
[[nodiscard]] const Expected& expected_default_seed();
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Verdict {
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;  // one line per failed row
};

/// Verify one pass. `reference` is the run's first pass (empty for the
/// first pass itself); `expected` applies to every row when `use_expected`
/// is set and to seed-independent rows always.
[[nodiscard]] Verdict verify_rows(const std::vector<Row>& rows,
                                  const std::vector<Row>& reference,
                                  const Expected& expected,
                                  bool use_expected);

/// The expected-table lines for `rows`, in the .inc format.
[[nodiscard]] std::string expected_lines(const std::vector<Row>& rows);

}  // namespace perfbench
