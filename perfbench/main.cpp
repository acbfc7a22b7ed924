// perfbench: time one workload end to end, or trace it layer by layer.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--spans-out FILE]
//   perfbench --workload NAME [--seed N] --print-expected
//
// Untraced (--trace 0) it reports the end-to-end metrics wall_s, cpu_s,
// setup_s and peak_rss_mb; traced (--trace 1) it alternates untraced and
// traced passes and reports the per-layer metrics plus trace.overhead_s;
// with --spans-out it also writes every traced span there as CSV.
// Every pass verifies its rows (verify.hpp) and checks that its
// deterministic counts equal the first pass's. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
// code is nonzero when any row failed or any count drifted.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "layers.hpp"
#include "testers/calibration.hpp"
#include "trace.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Layer;
using perfbench::Recorder;
using perfbench::Row;
using Clock = std::chrono::steady_clock;

// A run measures for --seconds but never fewer passes than this.
constexpr int kMinPasses = 3;
constexpr int kMinPassesTraced = 4;  // two untraced + two traced

struct Args {
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool print_expected = false;
  std::string spans_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-expected") {
      a.print_expected = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--spans-out") {
        a.spans_out = value;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return false;
        a.trace = value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty();
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Peak resident set of this process image in MB (VmHWM). Unlike
/// ru_maxrss it does not carry over the parent's size from before exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Time of a typical pass: for each segment, its median over the passes,
/// summed over the segments. A load spike on the shared host that slows one
/// segment of one pass does not move it.
double median_pass(const std::vector<std::vector<double>>& passes) {
  double total = 0.0;
  for (std::size_t seg = 0; seg < passes.front().size(); ++seg) {
    std::vector<double> v;
    for (const auto& p : passes) v.push_back(p.at(seg));
    total += median(std::move(v));
  }
  return total;
}

/// Every count of one pass: calls per layer, result tallies, memo stats.
std::map<std::string, std::uint64_t> take_pass_counts() {
  std::map<std::string, std::uint64_t> c;
  const auto calls = Recorder::instance().take_counts();
  for (std::size_t i = 0; i < perfbench::kLayers; ++i) {
    const auto layer = static_cast<Layer>(i);
    if (layer == Layer::kPass) continue;
    c[std::string(perfbench::layer_name(layer)) + ".calls"] = calls[i];
  }
  const auto tallies = perfbench::take_tallies();
  for (std::size_t i = 0; i < perfbench::kTallies; ++i) {
    c[perfbench::tally_name(static_cast<perfbench::Tally>(i))] = tallies[i];
  }
  const auto memo = duti::CalibMemo::global().stats();
  c["testers.calib_memo.hits"] = memo.hits;
  c["testers.calib_memo.misses"] = memo.misses;
  return c;
}

void reset_pass_state() {
  duti::CalibMemo::global().clear();
  duti::CalibMemo::global().reset_stats();
  (void)take_pass_counts();
  (void)Recorder::instance().take_spans();
}

struct Metric {
  double value;
  const char* unit;
};

/// Per-layer metrics of one traced pass.
std::map<std::string, Metric> layer_metrics(
    const std::map<std::string, std::uint64_t>& counts,
    const std::vector<perfbench::Span>& spans, unsigned threads) {
  std::map<std::string, Metric> m;
  const auto totals = perfbench::summarize(spans);
  for (const auto& [name, v] : counts) {
    m[name] = {static_cast<double>(v), "count"};
  }
  for (std::size_t i = 0; i < perfbench::kLayers; ++i) {
    const auto layer = static_cast<Layer>(i);
    if (layer == Layer::kPass) continue;
    const std::string name = perfbench::layer_name(layer);
    m[name + ".busy_s"] = {totals[i].busy_s, "s"};
    if (layer == Layer::kSweep || layer == Layer::kSearch ||
        layer == Layer::kProbe) {
      m[name + ".self_s"] = {totals[i].self_s, "s"};
    }
  }
  const auto get = [&](const std::string& k) { return m.at(k).value; };
  m["testers.run.mean_us"] = {
      1e6 * ratio(get("testers.run.busy_s"), get("testers.run.calls")), "us"};
  m["stats.sweep.useful_ratio"] = {ratio(get("stats.sweep.trials_consulted"),
                                         get("stats.sweep.trials_computed")),
                                   "ratio"};
  m["stats.search.useful_ratio"] = {
      ratio(get("stats.search.probes_consulted"),
            get("stats.search.probes_computed")),
      "ratio"};
  m["sim.reliable.exact_ratio"] = {
      ratio(get("sim.reliable.exact"), get("sim.reliable.calls")), "ratio"};
  m["util.pool.threads"] = {static_cast<double>(threads), "count"};
  m["util.pool.busy_ratio"] = {
      ratio(get("testers.run.busy_s"),
            get("stats.sweep.busy_s") * static_cast<double>(threads)),
      "ratio"};
  return m;
}

/// One line per span: pass,row,layer,id,parent,start_ns,end_ns.
bool write_spans(const std::string& path,
                 const std::vector<perfbench::Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "pass,row,layer,id,parent,start_ns,end_ns\n");
  for (const perfbench::Span& s : spans) {
    std::fprintf(f, "%u,%d,%s,%llu,%llu,%lld,%lld\n", s.pass, s.row,
                 perfbench::layer_name(s.layer),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value, metric.unit);
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  // The probe cache stays off whatever the caller's environment says: each
  // timed pass must compute its table from scratch.
  setenv("DUTI_CACHE", "off", 1);

  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--spans-out FILE] [--print-expected]\n");
    return 2;
  }
  auto workload = perfbench::make_workload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 args.workload.c_str());
    for (const auto& n : perfbench::workload_names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  Recorder& recorder = Recorder::instance();

  if (args.print_expected) {
    workload->setup();
    reset_pass_state();
    std::fputs(perfbench::expected_lines(workload->run_pass().rows).c_str(),
               stdout);
    return 0;
  }

  const bool use_expected = args.seed == perfbench::kDefaultSeed;
  const perfbench::Expected& expected = perfbench::expected_default_seed();
  std::vector<Row> reference;
  std::map<std::string, std::uint64_t> reference_counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool counts_ok = true;
  // Per-pass segment times, untraced and traced passes apart.
  std::vector<std::vector<double>> wall_plain, wall_traced, cpu_plain;
  std::vector<std::map<std::string, Metric>> traced;
  std::vector<perfbench::Span> spans;  // every traced pass's
  // Every pass runs on a fresh set-up; setup_s is their median, so its
  // samples spread over the run like the passes do.
  std::vector<double> setup_times;

  const int min_passes = args.trace ? kMinPassesTraced : kMinPasses;
  const auto measure_start = Clock::now();
  for (int pass = 0;
       pass < min_passes || seconds_since(measure_start) < args.seconds;
       ++pass) {
    const bool tracing = args.trace && pass % 2 == 1;
    reset_pass_state();
    const auto setup_start = Clock::now();
    workload->setup();
    setup_times.push_back(seconds_since(setup_start));
    reset_pass_state();
    recorder.set_tracing(tracing);
    recorder.set_pass(static_cast<std::uint32_t>(pass));
    const double cpu0 = perfbench::cpu_seconds();
    const auto t0 = Clock::now();
    perfbench::PassResult result;
    {
      const perfbench::ScopedSpan span(Layer::kPass, -1, /*scope=*/true);
      result = workload->run_pass();
    }
    const double wall = seconds_since(t0);
    const double cpu = perfbench::cpu_seconds() - cpu0;
    recorder.set_tracing(false);
    const std::vector<Row>& rows = result.rows;

    const auto verdict =
        perfbench::verify_rows(rows, reference, expected, use_expected);
    attempted += rows.size();
    failed += verdict.failed;
    for (const auto& why : verdict.reasons) {
      std::printf("pass %d FAILED ROW %s\n", pass, why.c_str());
    }
    if (reference.empty()) reference = rows;

    const auto counts = take_pass_counts();
    if (reference_counts.empty()) reference_counts = counts;
    for (const auto& [name, v] : counts) {
      if (workload->count_is_deterministic(name) &&
          reference_counts.at(name) != v) {
        counts_ok = false;
        std::printf("pass %d COUNT DRIFT %s: %llu != %llu in pass 0\n", pass,
                    name.c_str(), static_cast<unsigned long long>(v),
                    static_cast<unsigned long long>(reference_counts.at(name)));
      }
    }

    if (tracing) {
      wall_traced.push_back(result.segment_wall);
      const auto pass_spans = recorder.take_spans();
      traced.push_back(
          layer_metrics(counts, pass_spans, workload->threads()));
      spans.insert(spans.end(), pass_spans.begin(), pass_spans.end());
    } else {
      wall_plain.push_back(result.segment_wall);
      cpu_plain.push_back(result.segment_cpu);
    }
    std::printf("pass %d%s: wall %.3f s, cpu %.3f s, rows %zu, failed %llu\n",
                pass, tracing ? " (traced)" : "", wall, cpu, rows.size(),
                static_cast<unsigned long long>(verdict.failed));
  }

  std::map<std::string, Metric> metrics;
  if (!args.trace) {
    metrics["wall_s"] = {median_pass(wall_plain), "s"};
    metrics["cpu_s"] = {median_pass(cpu_plain), "s"};
    metrics["setup_s"] = {median(setup_times), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } else {
    for (const auto& [name, first] : traced.front()) {
      std::vector<double> values;
      for (const auto& pass : traced) values.push_back(pass.at(name).value);
      metrics[name] = {median(values), first.unit};
    }
    metrics["trace.overhead_s"] = {
        median_pass(wall_traced) - median_pass(wall_plain), "s"};
    if (!args.spans_out.empty() && !write_spans(args.spans_out, spans)) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_out.c_str());
    }
    std::printf("%-34s %16s\n", "per-layer (median of traced passes)",
                "value");
    for (const auto& [name, metric] : metrics) {
      std::printf("%-34s %16.6f %s\n", name.c_str(), metric.value,
                  metric.unit);
    }
  }
  const bool correct = failed == 0 && counts_ok;
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
