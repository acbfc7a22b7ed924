// Span recorder for the benchmark's traced runs.
//
// A span marks one call into a library layer, timed from outside: name
// (the layer), start, end, the span that caused it, and the pass and row it
// belongs to. Spans are appended to per-thread logs (no lock on the hot
// path) and collected by the driving thread between passes, when the pool
// is idle. Call counts are kept in the same per-thread logs whether or not
// tracing is on; timestamps are taken only when it is on.
//
// Parents: a span's parent is the innermost open span on its own thread.
// A span opened on a thread with nothing open (a pool worker running part
// of a sweep) takes the innermost open *scope* span of the driving thread
// instead, so cross-thread work is charged to the call that fanned it out.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kPass,
  kSweep,
  kSearch,
  kProbe,
  kConstruct,
  kRun,
  kSource,
  kConvergecast,
  kReliable,
  kCountXs,
  kMomentExact,
  kMomentMc,
  kCount  // number of layers
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

/// Metric prefix of a layer, e.g. "testers.run".
[[nodiscard]] const char* layer_name(Layer layer);

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t pass = 0;
  std::int32_t row = -1;  // -1 = not tied to one row
  Layer layer = Layer::kPass;
};

using LayerCounts = std::array<std::uint64_t, kLayers>;

class Recorder {
 public:
  static Recorder& instance();

  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool tracing() const {
    return tracing_.load(std::memory_order_relaxed);
  }
  void set_pass(std::uint32_t pass) {
    pass_.store(pass, std::memory_order_relaxed);
  }

  /// Move every thread's spans and call counts out of the logs. Only call
  /// while no other thread is recording (between passes).
  [[nodiscard]] std::vector<Span> take_spans();
  [[nodiscard]] LayerCounts take_counts();

 private:
  friend class ScopedSpan;
  struct ThreadLog {
    std::vector<Span> spans;
    std::vector<std::uint64_t> open;  // ids of this thread's open spans
    LayerCounts calls{};
    std::uint64_t next_seq = 1;
    std::uint64_t thread_index = 0;
  };
  ThreadLog& local();

  std::atomic<bool> tracing_{false};
  std::atomic<std::uint32_t> pass_{0};
  // Innermost open scope span of the driving thread (see file comment).
  std::atomic<std::uint64_t> ambient_{0};
  std::mutex mu_;  // guards logs_
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

/// RAII span around one call into a layer. Counts the call always; records
/// timestamps only while tracing. `scope` marks a span that fans work out
/// to pool workers (their spans become its children).
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, std::int32_t row, bool scope = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder::ThreadLog* log_;
  Span span_;
  std::uint64_t prev_ambient_ = 0;
  bool timed_ = false;
  bool scope_ = false;
};

/// Per-layer totals over a set of spans. busy = sum of span durations;
/// self = busy minus the part of each span's interval that its children
/// (on any thread) cover, counting overlapping children once.
struct LayerTotals {
  std::uint64_t spans = 0;
  double busy_s = 0.0;
  double self_s = 0.0;
};
[[nodiscard]] std::array<LayerTotals, kLayers> summarize(
    const std::vector<Span>& spans);

}  // namespace perfbench
