#include "sim/reliable.hpp"

#include <algorithm>

namespace duti {

namespace {

constexpr std::uint64_t kKindData = 1;
constexpr std::uint64_t kKindAck = 2;
constexpr unsigned kTimeoutCap = 256;  // rounds; keeps backoff finite

[[nodiscard]] std::uint64_t make_header(std::uint64_t kind,
                                        std::uint64_t seq) noexcept {
  return kind | (seq << 2);
}

}  // namespace

unsigned ReliableConfig::timeout(unsigned attempt) const noexcept {
  std::uint64_t t = std::max(1u, ack_timeout);
  for (unsigned i = 0; i < attempt; ++i) {
    t *= std::max(1u, backoff);
    if (t >= kTimeoutCap) return kTimeoutCap;
  }
  return static_cast<unsigned>(std::min<std::uint64_t>(t, kTimeoutCap));
}

unsigned ReliableConfig::window() const noexcept {
  unsigned total = 0;
  for (unsigned i = 0; i <= max_retries; ++i) total += timeout(i);
  return total;
}

void ReliableStats::merge(const ReliableStats& other) noexcept {
  data_sent += other.data_sent;
  retransmissions += other.retransmissions;
  acks_sent += other.acks_sent;
  duplicates += other.duplicates;
  delivered += other.delivered;
  failed += other.failed;
  payload_bits += other.payload_bits;
  overhead_bits += other.overhead_bits;
}

std::uint64_t ReliableEndpoint::send(NodeId to,
                                     std::span<const std::uint64_t> payload,
                                     std::uint64_t bit_size) {
  if (live_ == pending_.size()) pending_.emplace_back();
  Pending& p = pending_[live_++];
  p.to = to;
  p.seq = next_seq_++;
  p.frame.assign(1, make_header(kKindData, p.seq));
  p.frame.insert(p.frame.end(), payload.begin(), payload.end());
  p.bit_size = bit_size;
  p.attempts = 0;
  p.next_attempt_round = 0;
  return p.seq;
}

void ReliableEndpoint::settle(std::size_t i) {
  // Keep the in-flight order; the settled slot parks behind the live ones
  // with its frame buffer for the next send.
  const auto first = pending_.begin() + static_cast<std::ptrdiff_t>(i);
  std::rotate(first, first + 1,
              pending_.begin() + static_cast<std::ptrdiff_t>(live_));
  --live_;
}

std::span<const ReliableDelivery> ReliableEndpoint::receive(
    RoundContext& ctx) {
  std::size_t delivered = 0;
  const std::uint64_t header_bits = cfg_.header_bits();
  for (const auto& m : ctx.inbox()) {
    if (m.payload.empty()) continue;  // not a reliable frame
    const std::uint64_t kind = m.payload[0] & 3ULL;
    const std::uint64_t seq = m.payload[0] >> 2;
    if (kind == kKindData) {
      // Always ACK, even duplicates: the earlier ACK may have been lost.
      ctx.send(m.from, {make_header(kKindAck, seq)}, header_bits);
      ++stats_.acks_sent;
      stats_.overhead_bits += header_bits;
      const std::pair<NodeId, std::uint64_t> key{m.from, seq};
      const auto pos = std::lower_bound(seen_.begin(), seen_.end(), key);
      if (pos != seen_.end() && *pos == key) {
        ++stats_.duplicates;
        continue;
      }
      seen_.insert(pos, key);
      if (delivered == deliveries_.size()) deliveries_.emplace_back();
      ReliableDelivery& d = deliveries_[delivered++];
      d.from = m.from;
      d.seq = seq;
      d.payload.assign(m.payload.begin() + 1, m.payload.end());
      d.bit_size = m.bit_size > header_bits ? m.bit_size - header_bits : 0;
      ++stats_.delivered;
    } else if (kind == kKindAck) {
      for (std::size_t i = 0; i < live_; ++i) {
        if (pending_[i].to == m.from && pending_[i].seq == seq) {
          settle(i);
          break;
        }
      }
    }
    // Unknown kinds (e.g. a corrupted header) are ignored; the sender's
    // timeout recovers the frame.
  }
  return {deliveries_.data(), delivered};
}

void ReliableEndpoint::flush(RoundContext& ctx) {
  const unsigned round = ctx.round();
  const std::uint64_t header_bits = cfg_.header_bits();
  for (std::size_t i = 0; i < live_;) {
    Pending& p = pending_[i];
    if (p.attempts == 0) {
      // First transmission.
      ctx.send(p.to, p.frame, p.bit_size + header_bits);
      ++stats_.data_sent;
      stats_.payload_bits += p.bit_size;
      stats_.overhead_bits += header_bits;
      p.attempts = 1;
      p.next_attempt_round = round + cfg_.timeout(0);
      ++i;
    } else if (round >= p.next_attempt_round) {
      if (p.attempts > cfg_.max_retries) {
        // Retry budget exhausted: hand the payload back to the caller.
        ++stats_.failed;
        FailedSend f;
        f.to = p.to;
        f.seq = p.seq;
        f.payload.assign(p.frame.begin() + 1, p.frame.end());
        f.bit_size = p.bit_size;
        failures_.push_back(std::move(f));
        settle(i);
      } else {
        ctx.send(p.to, p.frame, p.bit_size + header_bits);
        ++stats_.retransmissions;
        stats_.overhead_bits += p.bit_size + header_bits;
        p.next_attempt_round = round + cfg_.timeout(p.attempts);
        ++p.attempts;
        ++i;
      }
    } else {
      ++i;
    }
  }
}

void ReliableEndpoint::reset(const ReliableConfig& cfg) {
  cfg_ = cfg;
  next_seq_ = 1;
  live_ = 0;
  failures_.clear();
  seen_.clear();
  stats_ = {};
}

std::vector<FailedSend> ReliableEndpoint::take_failures() {
  return std::move(failures_);
}

namespace {

/// The self-healing convergecast's per-node protocol state. The behaviours
/// capture one pointer to it (and their node id), so each closure fits in
/// std::function's small buffer. Each thread keeps one instance between
/// calls, so back-to-back convergecasts reuse its buffers and endpoints.
struct HealingConvergecast {
  /// Set up one convergecast, keeping the capacity of every buffer.
  void reset(const Network& network, const SpanningTree& spanning,
             const std::vector<std::uint64_t>& values, std::uint64_t app_width,
             const ReliableConfig& cfg) {
    net = &network;
    tree = &spanning;
    k = network.num_nodes();
    app_bits = app_width;
    // Per-hop time budget: a full retransmission window plus slack, so a
    // child's (possibly retransmitted) report lands before its parent's
    // send deadline.
    hop = cfg.window() + 4;
    t_end = (spanning.height + 4) * hop;
    ep.resize(k);
    for (ReliableEndpoint& e : ep) e.reset(cfg);
    acc.assign(values.begin(), values.end());
    cnt.assign(k, 1);
    sent.assign(k, 0);
    cur_parent.assign(spanning.parent.begin(), spanning.parent.end());
    unreported.assign(k, 0);
    reported.assign(k, 0);
    tried.assign(std::size_t{k} * k, 0);
    busy.assign(k, 0);
    for (NodeId v = 0; v < k; ++v) {
      if (v != spanning.root) ++unreported[spanning.parent[v]];
      tried[std::size_t{v} * k + spanning.parent[v]] = 1;
    }
    unsent = k - 1;
    busy_count = 0;
    reparents = 0;
    lost = 0;
  }

  [[nodiscard]] unsigned deadline(NodeId v) const {
    return (tree->height - tree->depth[v] + 1) * hop;
  }

  void receive(NodeId v, RoundContext& ctx) {
    for (const ReliableDelivery& d : ep[v].receive(ctx)) {
      const std::uint64_t value = d.payload.at(0);
      const std::uint64_t c = d.payload.at(1);
      // A child may deliver several frames (its report, then forwarded
      // stragglers); only the first counts toward the all-reported rule.
      if (d.from != tree->root && tree->parent[d.from] == v &&
          !reported[d.from]) {
        reported[d.from] = 1;
        --unreported[v];
      }
      if (v == tree->root || !sent[v]) {
        acc[v] += value;
        cnt[v] += c;
      } else {
        // Our own report already left; forward the late contribution
        // (a re-parented or straggler subtree) up the current parent.
        ep[v].send(cur_parent[v], {value, c}, app_bits);
      }
    }
  }

  void step(NodeId v, RoundContext& ctx) {
    // Most rounds a node has nothing to read and nothing in flight; the
    // inbox and idle() checks skip the endpoint calls then.
    if (!ctx.inbox().empty()) receive(v, ctx);
    for (auto& f : ep[v].take_failures()) {
      // The destination stopped acknowledging (crashed parent, dead
      // link): re-parent to an untried neighbour strictly closer to the
      // root. Depth strictly decreases along any forwarding chain, so
      // healing cannot create cycles.
      NodeId next = v;
      for (NodeId u = 0; u < k; ++u) {
        if (!net->has_edge(v, u) || tree->depth[u] >= tree->depth[v]) continue;
        if (tried[std::size_t{v} * k + u]) continue;
        if (next == v || tree->depth[u] < tree->depth[next]) next = u;
      }
      if (next == v) {
        lost += static_cast<std::uint32_t>(f.payload.at(1));
      } else {
        tried[std::size_t{v} * k + next] = 1;
        cur_parent[v] = next;
        ++reparents;
        ep[v].send(next, f.payload, f.bit_size);
      }
    }
    // Send once every child reported — or at the deadline, with whatever
    // arrived (crashed children never report).
    if (v != tree->root && !sent[v] &&
        (unreported[v] == 0 || ctx.round() >= deadline(v))) {
      sent[v] = 1;
      --unsent;
      ep[v].send(cur_parent[v], {acc[v], cnt[v]}, app_bits);
    }
    if (!ep[v].idle()) ep[v].flush(ctx);
    // Only this node's behaviour touches ep[v], so refreshing its busy
    // flag here keeps busy_count equal to the number of non-idle
    // endpoints whenever any node checks it.
    const std::uint8_t now_busy = ep[v].idle() ? 0 : 1;
    busy_count = busy_count - busy[v] + now_busy;
    busy[v] = now_busy;
    if (ctx.round() >= t_end || (unsent == 0 && busy_count == 0)) ctx.halt();
  }

  const Network* net = nullptr;
  const SpanningTree* tree = nullptr;
  std::uint32_t k = 0;
  std::uint64_t app_bits = 0;
  unsigned hop = 0;
  unsigned t_end = 0;
  std::vector<ReliableEndpoint> ep;
  std::vector<std::uint64_t> acc;
  std::vector<std::uint64_t> cnt;
  std::vector<std::uint8_t> sent;
  std::vector<NodeId> cur_parent;
  std::vector<std::uint32_t> unreported;  // tree children yet to report
  std::vector<std::uint8_t> reported;     // u's first frame reached its parent
  std::vector<std::uint8_t> tried;        // [v * k + u]: v has routed to u
  std::vector<std::uint8_t> busy;         // ep[v] not idle after v's step
  std::uint32_t unsent = 0;               // non-root nodes yet to send
  std::uint32_t busy_count = 0;
  std::uint32_t reparents = 0;
  std::uint32_t lost = 0;
};

thread_local HealingConvergecast tls_cast;

}  // namespace

ReliableConvergecastResult convergecast_sum_reliable(
    Network& net, const SpanningTree& tree,
    const std::vector<std::uint64_t>& values, std::uint64_t bits_per_value,
    Rng& rng, const ReliableConfig& cfg) {
  require(values.size() == net.num_nodes(),
          "convergecast_sum_reliable: one value per node");
  require(tree.num_nodes() == net.num_nodes(),
          "convergecast_sum_reliable: tree/network size mismatch");
  const std::uint32_t k = net.num_nodes();

  // Each frame carries (partial sum, contributing-node count).
  std::uint64_t count_bits = 1;
  while ((1ULL << count_bits) < k + 1ULL) ++count_bits;

  // Borrow this thread's state for the call and hand it back at the end.
  HealingConvergecast cast = std::move(tls_cast);
  cast.reset(net, tree, values, bits_per_value + count_bits, cfg);
  HealingConvergecast* const state = &cast;
  for (NodeId v = 0; v < k; ++v) {
    net.set_behavior(v,
                     [state, v](RoundContext& ctx) { state->step(v, ctx); });
  }

  ReliableConvergecastResult result;
  result.stats = net.run(rng, cast.t_end + 2);
  result.root_sum = cast.acc[tree.root];
  result.values_reached = static_cast<std::uint32_t>(cast.cnt[tree.root]);
  result.values_total = k;
  result.values_lost = cast.lost;
  result.reparent_events = cast.reparents;
  for (NodeId v = 0; v < k; ++v) result.transport.merge(cast.ep[v].stats());
  tls_cast = std::move(cast);
  return result;
}

}  // namespace duti
