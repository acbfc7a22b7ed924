#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kPass: return "pass";
    case Layer::kSweep: return "stats.sweep";
    case Layer::kSearch: return "stats.search";
    case Layer::kProbe: return "stats.probe";
    case Layer::kConstruct: return "testers.construct";
    case Layer::kRun: return "testers.run";
    case Layer::kSource: return "dist.source";
    case Layer::kConvergecast: return "sim.convergecast";
    case Layer::kReliable: return "sim.reliable";
    case Layer::kCountXs: return "fourier.count_x_s";
    case Layer::kMomentExact: return "fourier.moment_exact";
    case Layer::kMomentMc: return "fourier.moment_mc";
    case Layer::kCount: break;
  }
  return "?";
}

Recorder& Recorder::instance() {
  static Recorder recorder;
  return recorder;
}

Recorder::ThreadLog& Recorder::local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->thread_index = logs_.size();
  }
  return *log;
}

std::vector<Span> Recorder::take_spans() {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (auto& log : logs_) {
    out.insert(out.end(), log->spans.begin(), log->spans.end());
    log->spans.clear();
  }
  return out;
}

LayerCounts Recorder::take_counts() {
  const std::lock_guard<std::mutex> lock(mu_);
  LayerCounts out{};
  for (auto& log : logs_) {
    for (std::size_t i = 0; i < kLayers; ++i) out[i] += log->calls[i];
    log->calls = {};
  }
  return out;
}

ScopedSpan::ScopedSpan(Layer layer, std::int32_t row, bool scope)
    : log_(&Recorder::instance().local()) {
  ++log_->calls[static_cast<std::size_t>(layer)];
  Recorder& rec = Recorder::instance();
  if (!rec.tracing()) return;
  timed_ = true;
  span_.layer = layer;
  span_.row = row;
  span_.pass = rec.pass_.load(std::memory_order_relaxed);
  span_.id = (log_->thread_index << 40) | log_->next_seq++;
  span_.parent = log_->open.empty()
                     ? rec.ambient_.load(std::memory_order_acquire)
                     : log_->open.back();
  log_->open.push_back(span_.id);
  if (scope) {
    scope_ = true;
    prev_ambient_ = rec.ambient_.exchange(span_.id, std::memory_order_acq_rel);
  }
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!timed_) return;
  span_.end_ns = now_ns();
  log_->open.pop_back();
  if (scope_) {
    Recorder::instance().ambient_.store(prev_ambient_,
                                        std::memory_order_release);
  }
  log_->spans.push_back(span_);
}

std::array<LayerTotals, kLayers> summarize(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  // Child intervals per parent, clipped to the parent's own interval.
  std::unordered_map<std::size_t, std::vector<std::pair<std::int64_t,
                                                        std::int64_t>>>
      covered;
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t b = std::max(s.start_ns, p.start_ns);
    const std::int64_t e = std::min(s.end_ns, p.end_ns);
    if (e > b) covered[it->second].emplace_back(b, e);
  }

  std::array<LayerTotals, kLayers> out{};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    LayerTotals& t = out[static_cast<std::size_t>(s.layer)];
    const std::int64_t dur = s.end_ns - s.start_ns;
    std::int64_t child = 0;
    if (auto it = covered.find(i); it != covered.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t run_b = iv.front().first;
      std::int64_t run_e = iv.front().second;
      for (const auto& [b, e] : iv) {
        if (b > run_e) {
          child += run_e - run_b;
          run_b = b;
          run_e = e;
        } else {
          run_e = std::max(run_e, e);
        }
      }
      child += run_e - run_b;
    }
    ++t.spans;
    t.busy_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child) * 1e-9;
  }
  return out;
}

}  // namespace perfbench
