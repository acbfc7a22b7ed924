// Self-tests of the benchmark's own machinery: span self-time arithmetic,
// transparency of the layer wrappers, and the verifier's failure
// accounting. Run with `python3 perfbench/run.py --selftest`; exits
// nonzero if any check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "layers.hpp"
#include "sweep_specs.hpp"
#include "trace.hpp"
#include "verify.hpp"

namespace {

using perfbench::Layer;
using perfbench::Span;

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

Span span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
          std::int64_t end, Layer layer) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.layer = layer;
  return s;
}

void self_time_nested_and_cross_thread() {
  // sweep [0, 1000] with three children: a run [100, 300] on the calling
  // thread that holds a source [120, 180], a run [200, 500] on another
  // thread overlapping the first, and a source [900, 1100] that outlives
  // its parent (clipped to 900..1000).
  const std::vector<Span> spans{
      span(1, 0, 0, 1000, Layer::kSweep),
      span(2, 1, 100, 300, Layer::kRun),
      span(3, 2, 120, 180, Layer::kSource),
      span(4, 1, 200, 500, Layer::kRun),
      span(5, 1, 900, 1100, Layer::kSource),
  };
  const auto t = perfbench::summarize(spans);
  const auto& sweep = t[static_cast<std::size_t>(Layer::kSweep)];
  const auto& run = t[static_cast<std::size_t>(Layer::kRun)];
  const auto& source = t[static_cast<std::size_t>(Layer::kSource)];
  // Children cover [100, 500] once plus [900, 1000]: 500 ns.
  check(near(sweep.self_s, 500e-9), "overlapping children counted once");
  check(near(sweep.busy_s, 1000e-9), "busy is the span's duration");
  check(run.spans == 2, "two run spans");
  check(near(run.busy_s, 500e-9), "run busy sums both threads");
  check(near(run.self_s, 440e-9), "nested source subtracted from its run");
  check(near(source.self_s, 260e-9), "leaf self equals its duration");
}

void recorder_parents_cross_thread_spans() {
  auto& rec = perfbench::Recorder::instance();
  (void)rec.take_spans();
  rec.set_tracing(true);
  duti::ThreadPool pool(2);
  {
    const perfbench::ScopedSpan scope(Layer::kSweep, -1, /*scope=*/true);
    pool.parallel_for(64, 1, [](std::size_t, std::size_t, unsigned) {
      const perfbench::ScopedSpan leaf(Layer::kRun, 0);
    });
  }
  rec.set_tracing(false);
  const auto spans = rec.take_spans();
  std::uint64_t sweep_id = 0;
  for (const Span& s : spans) {
    if (s.layer == Layer::kSweep) sweep_id = s.id;
  }
  std::size_t runs = 0;
  bool all_parented = sweep_id != 0;
  for (const Span& s : spans) {
    if (s.layer != Layer::kRun) continue;
    ++runs;
    all_parented = all_parented && s.parent == sweep_id;
  }
  check(runs == 64, "every worker span recorded");
  check(all_parented, "worker spans are children of the fanning-out span");
  (void)rec.take_counts();
}

void wrapped_sweep_is_transparent() {
  const auto points =
      duti::bench::e2_and_points(256, 0.5, {2, 8, 32}, 60, 7);
  std::vector<duti::SweepPoint> wrapped;
  for (std::size_t i = 0; i < points.size(); ++i) {
    wrapped.push_back(
        perfbench::layer::instrument(points[i], static_cast<std::int32_t>(i)));
  }
  duti::ProbeCache cache(".duti_cache", duti::CacheMode::kOff);
  duti::SweepEngineConfig cfg;
  cfg.cache = &cache;
  duti::ThreadPool pool(2);
  const auto plain = duti::run_sweep(points, cfg, pool);
  perfbench::Recorder::instance().set_tracing(true);
  const auto traced = perfbench::layer::sweep(wrapped, cfg, pool);
  perfbench::Recorder::instance().set_tracing(false);
  check(plain.fingerprint == traced.fingerprint,
        "wrapped and unwrapped run_sweep give the same fingerprint");
  check(plain.trials_consulted == traced.trials_consulted,
        "wrapped and unwrapped run_sweep consult the same trials");
  (void)perfbench::Recorder::instance().take_spans();
  (void)perfbench::Recorder::instance().take_counts();
  (void)perfbench::take_tallies();
}

void verifier_counts_failed_rows() {
  using perfbench::Row;
  std::vector<Row> rows(3);
  rows[0] = {"w/a", {{"min", 12}, {"fingerprint", 0xabc}}, true, false};
  rows[1] = {"w/b", {{"min", 40}}, true, false};
  rows[2] = {"w/c", {{"value", 7}}, true, true};
  const perfbench::Expected expected{
      {"w/a/min", 12}, {"w/a/fingerprint", 0xabc}, {"w/b/min", 40},
      {"w/c/value", 7}};
  check(perfbench::verify_rows(rows, {}, expected, true).failed == 0,
        "matching rows pass");

  perfbench::Expected perturbed = expected;
  perturbed["w/a/fingerprint"] = 0xabd;
  check(perfbench::verify_rows(rows, {}, perturbed, true).failed == 1,
        "a perturbed expected value fails exactly its row");
  check(perfbench::verify_rows(rows, {}, perturbed, false).failed == 0,
        "seed-dependent rows skip the expected table at other seeds");
  perturbed = expected;
  perturbed["w/c/value"] = 8;
  check(perfbench::verify_rows(rows, {}, perturbed, false).failed == 1,
        "seed-independent rows use the expected table at every seed");

  std::vector<Row> drifted = rows;
  drifted[1].outputs[0].second = 41;
  check(perfbench::verify_rows(drifted, rows, expected, false).failed == 1,
        "a row that differs from the first pass fails");
  drifted = rows;
  drifted[2].gate_ok = false;
  check(perfbench::verify_rows(drifted, rows, expected, false).failed == 1,
        "a failed gate fails its row");

  check(!perfbench::expected_default_seed().empty(),
        "checked-in expected table is not empty");
}

}  // namespace

int main() {
  self_time_nested_and_cross_thread();
  recorder_parents_cross_thread_spans();
  wrapped_sweep_is_transparent();
  verifier_counts_failed_rows();
  std::printf("%d failed\n", failures);
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
